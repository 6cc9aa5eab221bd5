"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the code paths they check: subgroup lists come
from closing raw element subsets or from one element closure per
(subgroup, element) pair, complements from a full lattice scan,
invariable generation from explicit conjugate substitution, derivation
counts from an exhaustive search over generator images, minimal
generating tuples from a backtracking search over k-tuples, maximal
subgroups from comparing every pair of proper subgroups, and the
inclusion-exclusion value from a transparent double loop over subsets,
and Monte Carlo waiting times from a per-trial loop on Python-int masks
that makes the same generator calls as the vectorised simulation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

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


def maximal_classes_by_pairs(G: PermGroup) -> list[tuple[int, int, int, int]]:
    """``(rep_bits, class_size, union_bits, core_bits)`` per maximal class.

    A proper subgroup is maximal when no other proper subgroup contains
    it; classes are its orbits under conjugation by G's generators, with
    the least bitset as representative, sorted by (order, bits).
    """
    from chebotarev.subgroups import all_subgroups

    proper = [s.bits for s in all_subgroups(G) if s.order < G.order]
    maximal = {h for h in proper if not any(h != k and h & ~k == 0 for k in proper)}
    classes = []
    while maximal:
        orbit = {min(maximal)}
        frontier = list(orbit)
        while frontier:
            b = frontier.pop()
            for g in G._bfs_gen_indices:
                c = G.conj_bits(b, g)
                if c not in orbit:
                    orbit.add(c)
                    frontier.append(c)
        maximal -= orbit
        union, core = 0, G.full_bits
        for b in orbit:
            union |= b
            core &= b
        classes.append((min(orbit), len(orbit), union, core))
    return sorted(classes, key=lambda c: (c[0].bit_count(), c[0]))


def brute_min_generating_tuple(G: PermGroup) -> tuple[int, ...]:
    """A lexicographically-first generating tuple of minimal length.

    Tries every k-tuple for k = 1, 2, ... by backtracking. The first
    coordinate ranges over conjugacy class representatives only
    (generation is invariant under simultaneous conjugation); later
    coordinates range over all elements outside the running closure.
    """
    from chebotarev.perm import conjugacy_classes

    if G.order == 1:
        return ()
    G._ensure_table()
    full = G.full_bits
    reps = [r for r in conjugacy_classes(G).reps if r != 0]

    def search(prefix: tuple[int, ...], bits: int, k: int):
        if len(prefix) == k:
            return prefix if bits == full else None
        left_after = k - len(prefix) - 1
        for g in reps if not prefix else range(1, G.order):
            if (bits >> g) & 1:
                continue
            nbits = G.closure_bits(prefix + (g,))
            # each later proper extension at least doubles the order, so the
            # remaining steps cannot land exactly on |G| from too large a base
            if nbits.bit_count() << left_after > G.order:
                continue
            found = search(prefix + (g,), nbits, k)
            if found is not None:
                return found
        return None

    k = 1
    while True:
        found = search((), 1, k)
        if found is not None:
            return found
        k += 1


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


def brute_derivation_count(H: PermGroup, gen_matrices, p: int) -> tuple[int, int]:
    """(|Z^1|, |B^1|) by exhaustive generator-image search.

    A candidate assigns a vector to each member of a minimal generating
    tuple of H; it extends uniquely along the BFS tree of the group those
    members generate by zeta(x*g) = zeta(x)^g + zeta(g) and is a
    derivation iff that relation holds on every (element, generator)
    pair. Inner derivations are counted as the distinct images
    (v^g - v)_g of all vectors v. Matrices align with ``H.generators``.
    """
    from chebotarev.crowns import _element_matrices

    n = len(gen_matrices[0])
    vectors = list(itertools.product(range(p), repeat=n))

    def act(M, v):
        return tuple(sum(M[i][j] * v[j] for j in range(n)) % p for i in range(n))

    elem_mats = _element_matrices(H, gen_matrices, p)
    wit = brute_min_generating_tuple(H)
    assert len(vectors) ** len(wit) <= 1 << 24, "exponential oracle; keep the search small"
    H2 = PermGroup(H.degree, [H.elements[w] for w in wit])
    assert H2.order == H.order
    wit_mats = [elem_mats[w] for w in wit]
    slot = [
        next(i for i, w in enumerate(wit) if H.elements[w].images == g.images)
        for g in H2._bfs_gens
    ]

    def is_derivation(vals) -> bool:
        zeta = [tuple([0] * n)] * H2.order
        for j in range(1, H2.order):
            k = slot[H2._via[j]]
            moved = act(wit_mats[k], zeta[H2._parent[j]])
            zeta[j] = tuple((a + b) % p for a, b in zip(moved, vals[k]))
        for x in range(H2.order):
            for kk, y in enumerate(H2._gen_right[x]):
                k = slot[kk]
                moved = act(wit_mats[k], zeta[x])
                if zeta[y] != tuple((a + b) % p for a, b in zip(moved, vals[k])):
                    return False
        return True

    der_count = sum(
        is_derivation(vals) for vals in itertools.product(vectors, repeat=len(wit))
    )
    inner = {
        tuple(
            tuple((a - b) % p for a, b in zip(act(M, v), v)) for M in wit_mats
        )
        for v in vectors
    }
    return der_count, len(inner)


def mc_waits_by_trial(S, trials: int, seed: int) -> list[int]:
    """Waiting time of every trial under Monte Carlo stream version 2.

    Each step draws one element per alive trial, in trial order; masks are
    unbounded Python ints over all reduced unions.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    full = (1 << S.sieve_count) - 1
    masks = {t: full for t in range(trials)}
    waits = [0] * trials
    step = 0
    while masks:
        step += 1
        draws = rng.integers(0, S.order, size=len(masks))
        for t, e in zip(list(masks), draws):
            masks[t] &= S.class_signatures[S.class_of[int(e)]]
            if not masks[t]:
                waits[t] = step
                del masks[t]
    return waits
