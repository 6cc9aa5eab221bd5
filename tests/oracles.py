"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the code paths they check: subgroup lists come
from closing raw element subsets or from one element closure per
(subgroup, element) pair, complements from a full lattice scan,
invariable generation from explicit conjugate substitution, derivation
counts from a linear system, and the inclusion-exclusion value from a
transparent double loop over subsets.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from chebotarev.perm import PermGroup


def brute_subgroup_bits(G: PermGroup) -> set[int]:
    """All subgroup bitsets by closing every element subset (tiny groups)."""
    assert G.order <= 12, "exponential oracle; keep the group tiny"
    found: set[int] = set()
    elems = list(range(G.order))
    for r in range(G.order + 1):
        for combo in itertools.combinations(elems, r):
            found.add(G.closure_bits(combo))
    return found


def cyclic_extension_subgroups(G: PermGroup) -> list[tuple[int, tuple[int, ...]]]:
    """``(bits, witnesses)`` of every subgroup, sorted by (order, bits).

    Extends each subgroup H found by every element outside it, closing
    ``witnesses + (g,)`` anew each time; the first (H, g) to reach
    a subgroup supplies its witnesses.
    """
    seen: dict[int, tuple[int, ...]] = {1: ()}
    queue: list[int] = []
    for x in range(1, G.order):
        bits = G.closure_bits((x,))
        if bits not in seen:
            seen[bits] = (x,)
            queue.append(bits)
    for hbits in queue:
        wits = seen[hbits]
        for g in range(1, G.order):
            if (hbits >> g) & 1:
                continue
            kbits = G.closure_bits(wits + (g,))
            if kbits not in seen:
                seen[kbits] = wits + (g,)
                queue.append(kbits)
    return sorted(seen.items(), key=lambda item: (item[0].bit_count(), item[0]))


def complement_by_lattice_scan(G: PermGroup, X, Y) -> bool:
    """Some subgroup U has U n X = Y and |U||X| = |G||Y|, i.e. UX = G."""
    from chebotarev.subgroups import all_subgroups

    return any(
        U.bits & X.bits == Y.bits and U.order * X.order == G.order * Y.order
        for U in all_subgroups(G)
    )


def closure_of(G: PermGroup, seeds) -> int:
    return G.closure_bits(tuple(seeds))


def brute_invariable_generation(G: PermGroup, tup: tuple[int, ...]) -> bool:
    """Every choice of conjugates must generate; first coordinate fixed.

    Fixing the first coordinate is sound because generation of a tuple is
    invariant under simultaneous conjugation.
    """
    from chebotarev.perm import conjugacy_classes

    table = conjugacy_classes(G)
    class_members: list[list[int]] = [[] for _ in table.reps]
    for e in range(G.order):
        class_members[table.class_of[e]].append(e)
    full = G.full_bits
    if not tup:
        return G.closure_bits(()) == full
    choices = [[tup[0]]] + [class_members[table.class_of[g]] for g in tup[1:]]
    for pick in itertools.product(*choices):
        if G.closure_bits(pick) != full:
            return False
    return True


def brute_invariable_prob(G: PermGroup, k: int) -> Fraction:
    """Exact fraction of the |G|^k tuples that invariably generate."""
    from chebotarev.perm import conjugacy_classes

    table = conjugacy_classes(G)
    good = 0
    for combo in itertools.product(range(len(table.reps)), repeat=k):
        weight = 1
        for c in combo:
            weight *= table.sizes[c]
        tup = tuple(table.reps[c] for c in combo)
        if brute_invariable_generation(G, tup):
            good += weight
    return Fraction(good, G.order**k)


def naive_cheb_from_unions(order: int, unions: list[int]) -> Fraction:
    """C(G) by direct subset enumeration over explicit union bitsets."""
    total = Fraction(0)
    r = len(unions)
    for bitsub in range(1, 1 << r):
        inter = (1 << order) - 1
        size = 0
        for j in range(r):
            if (bitsub >> j) & 1:
                inter &= unions[j]
                size += 1
        q = Fraction(inter.bit_count(), order)
        sign = 1 if size % 2 else -1
        total += sign * Fraction(1) / (1 - q)
    return total


def naive_prob_from_unions(order: int, unions: list[int], k: int) -> Fraction:
    """P_I(G, k) by direct subset enumeration over explicit union bitsets."""
    total = Fraction(0)
    r = len(unions)
    for bitsub in range(1, 1 << r):
        inter = (1 << order) - 1
        size = 0
        for j in range(r):
            if (bitsub >> j) & 1:
                inter &= unions[j]
                size += 1
        q = Fraction(inter.bit_count(), order)
        sign = 1 if size % 2 else -1
        total += sign * q**k
    return 1 - total


def derivation_space_dim(gen_matrices, wit_group: PermGroup, p: int) -> int:
    """dim of the derivation space by Gaussian elimination.

    The cocycle conditions on every (element, generator) edge of the
    Cayley graph are linear in the generator images; this sets up that
    system explicitly and returns the nullspace dimension. Matrices must
    align with ``wit_group.generators`` and ``wit_group`` must be built
    from a generating tuple (one unknown vector per generator).
    """
    from chebotarev.crowns import mat_identity, mat_mul, nullspace

    H = wit_group
    n = len(gen_matrices[0])
    s = len(H.generators)
    by_images = {g.images: gen_matrices[i] for i, g in enumerate(H.generators)}
    elem_mats = [mat_identity(n)] * H.order
    for j in range(1, H.order):
        pj, gj = H._parent[j], H._via[j]
        elem_mats[j] = mat_mul(by_images[H._bfs_gens[gj].images], elem_mats[pj], p)

    # zeta(x) is linear in the unknowns: zeta(x) = sum_slots L_x[slot] @ v_slot
    zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    lin: list[list] = [[zero] * s for _ in range(H.order)]
    slot_of_bfs = []
    for g in H._bfs_gens:
        slot_of_bfs.append(
            next(i for i, gg in enumerate(H.generators) if gg.images == g.images)
        )
    for j in range(1, H.order):
        pj, gj = H._parent[j], H._via[j]
        slot = slot_of_bfs[gj]
        M = by_images[H._bfs_gens[gj].images]
        row = [mat_mul(M, L, p) for L in lin[pj]]
        bump = [[list(r) for r in mat] for mat in row]
        for i in range(n):
            bump[slot][i][i] = (bump[slot][i][i] + 1) % p
        lin[j] = [tuple(tuple(r) for r in mat) for mat in bump]

    rows: list[list[int]] = []
    for x in range(H.order):
        for kk in range(len(H._bfs_gens)):
            y = H._gen_right[x][kk]
            slot = slot_of_bfs[kk]
            M = by_images[H._bfs_gens[kk].images]
            moved = [mat_mul(M, L, p) for L in lin[x]]
            bump = [[list(r) for r in mat] for mat in moved]
            for i in range(n):
                bump[slot][i][i] = (bump[slot][i][i] + 1) % p
            for i in range(n):
                row = []
                for sl in range(s):
                    for c in range(n):
                        row.append((bump[sl][i][c] - lin[y][sl][i][c]) % p)
                rows.append(row)
    return len(nullspace(rows, s * n, p))
