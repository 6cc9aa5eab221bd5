"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the code paths they check: element order comes
from a breadth-first walk composing permutations point by point, action
matrices of every element from matrix products along the BFS tree,
subgroup lists come from closing raw element subsets or from one element
closure per (subgroup, element) pair, complements from a full lattice
scan or from the conjugation orbits of one complement per class,
invariable generation from explicit conjugate substitution,
derivation counts from an exhaustive search over generator images,
commutant fields from testing every nonzero commutant element for
invertibility,
minimal generating tuples from a backtracking search over k-tuples, d(G)
from the depth of G in the breadth-first lattice walk, maximal subgroups
from comparing every pair of proper subgroups and their classes from
walking conjugation orbits, normality from conjugating every element,
solubility from the derived series, and the inclusion-exclusion value
from a transparent double loop over subsets, the reduced sieve family
from a pairwise containment scan of the maximal classes' unions, each
the union of its representative's conjugation orbit, Monte
Carlo waiting times from a per-trial loop on Python-int masks that draws
through numpy's ``Generator.integers``, which the simulation derives from
raw words instead, bounded draws from Lemire's rule applied to one
candidate at a time in Python ints, normal closures from closing every
conjugate of the seeds, minimal normal subgroups above N from the
lattice's normal subgroups or from the normal closure of every class
representative, other chief series from those lattice minimal normal
subgroups, crown classes from the module calls over another chief
series, socle modules
from an explicitly built quotient group, random groups from seeded
random generators,
quotient groups from one product per coset and element, section
centralizers from the commutator with every element, element orders
from repeated products, the waiting-time ratio verdict from 60-digit
decimal square roots, the alive-mask chain from reading every class at
every reached mask, and the readings of the wait's law from that chain
itself: the mean solved mask by mask as reduced integer pairs, and
P_I(G, k) by carrying integer weights forward k steps.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from chebotarev.catalog import RATIO_CATALOG, SOLUBLE_CATALOG
from chebotarev.perm import PermGroup, Permutation, Subgroup

# The benchmark's catalog: soluble catalog, ratio-test constructions, S5, A5.
CATALOG_SPECS = tuple(
    dict.fromkeys(
        SOLUBLE_CATALOG
        + tuple(case.spec for case in RATIO_CATALOG)
        + ("symmetric 5", "alternating 5")
    )
)
SOLUBLE_SPECS = CATALOG_SPECS[:-2]
# The benchmark's exact workload: 12 to 18 reduced sieves each.
EXACT_SPECS = (
    "elementary 17 2",
    "elementary 13 2",
    "elementary 11 2",
    "elementary 2 4",
    "elementary 3 3",
    "direct_product elementary 2 4 cyclic 3",
    "direct_product elementary 3 3 elementary 2 2",
    "direct_product elementary 3 3 cyclic 2",
)


def bfs_element_images(G: PermGroup) -> list[tuple[int, ...]]:
    """G's element images in breadth-first order, composed point by point.

    The walk starts at the identity and multiplies each element found, in
    order, on the right by each distinct non-identity generator, sorted by
    images; ``x * g`` sends v to g(x(v)).
    """
    ident = tuple(range(G.degree))
    gens = sorted({g.images for g in G.generators} - {ident})
    found = [ident]
    seen = {ident}
    for x in found:
        for g in gens:
            y = tuple(g[x[v]] for v in range(G.degree))
            if y not in seen:
                seen.add(y)
                found.append(y)
    return found


def brute_subgroup_bits(G: PermGroup) -> set[int]:
    """All subgroup bitsets by closing every element subset (tiny groups)."""
    assert G.order <= 12, "exponential oracle; keep the group tiny"
    found: set[int] = set()
    elems = list(range(G.order))
    for r in range(G.order + 1):
        for combo in itertools.combinations(elems, r):
            found.add(G.closure_bits(combo))
    return found


def normal_closure_by_conjugates(G: PermGroup, seeds) -> int:
    """The subgroup generated by every G-conjugate of every seed."""
    # conjugates as products, not through the conjugation maps under test
    conjugates = {G.mult(G.mult(G.inv(g), s), g) for s in seeds for g in range(G.order)}
    return G.closure_bits(conjugates)


def minimal_normal_by_lattice(G: PermGroup, N: Subgroup) -> list[int]:
    """Minimal normal subgroups properly containing N, sorted by (order, bits)."""
    from chebotarev.subgroups import all_subgroups

    above = [
        s.bits
        for s in all_subgroups(G)
        if s.bits != N.bits and N.bits & ~s.bits == 0 and s.is_normal()
    ]
    minimal = [b for b in above if not any(c != b and c & ~b == 0 for c in above)]
    return sorted(minimal, key=lambda b: (b.bit_count(), b))


def chief_series_variant(G: PermGroup, variant: int):
    """A chief series of G through its soluble radical, the choice rotated.

    Built bottom-up from N = 1 like ``chief_series``, from the lattice's
    minimal normal subgroups above N (``minimal_normal_by_lattice``). The
    abelian ones, X/N with every commutator of X's witnesses in N, come
    first: when G/N has one, only those are candidates. Each level takes
    the candidate at ``variant`` modulo their number, so variant 0 is the
    series that ``chief_series`` builds.
    """
    from chebotarev.crowns import ChiefSeries

    chain_up = [Subgroup.trivial(G)]
    flags = []
    while chain_up[-1].order < G.order:
        N = chain_up[-1]
        mins = [Subgroup(G, bits) for bits in minimal_normal_by_lattice(G, N)]
        abelian = [
            X
            for X in mins
            if all((N.bits >> G.commutator(a, b)) & 1 for a in X.witnesses for b in X.witnesses)
        ]
        candidates = abelian or mins
        chain_up.append(candidates[variant % len(candidates)])
        flags.append(bool(abelian))
    subs = tuple(reversed(chain_up))
    return ChiefSeries(
        subgroups=subs,
        factor_orders=tuple(X.order // Y.order for X, Y in zip(subs, subs[1:])),
        factor_abelian=tuple(reversed(flags)),
    )


def crown_summary(G: PermGroup, series) -> list[tuple]:
    """``(p, n_raw, q, n, delta, central, h_order)`` per crown class, sorted.

    Read off ``series``: a factor counts when it is abelian and
    ``is_complemented`` says so (the consistency of the complement system
    that ``crown_data`` reads too), its module is ``factor_module``'s, and
    modules join one class when ``g_isomorphic`` says so.
    """
    from chebotarev.crowns import endo_field, factor_module, g_isomorphic

    classes: list[list] = []
    subs = series.subgroups
    for X, Y, abelian in zip(subs, subs[1:], series.factor_abelian):
        if not (abelian and is_complemented(G, X, Y)):
            continue
        mod = factor_module(G, X, Y)
        for cls in classes:
            if g_isomorphic(cls[0], mod):
                cls.append(mod)
                break
        else:
            classes.append([mod])
    return sorted(
        (V.p, V.n_raw, *endo_field(V), len(cls), V.central, V.h_order)
        for cls in classes
        for V in cls[:1]
    )


def minimal_normal_by_all_closures(G: PermGroup, N: Subgroup) -> list[int]:
    """Minimal members of {N C_x : x a class representative outside N}.

    No class is pruned: N C_x, the normal closure of N and x, is closed for
    every conjugacy class representative x outside N, adding conjugates by
    G's generators, as products, until none falls outside. Sorted by
    (order, bits).
    """
    from chebotarev.perm import conjugacy_classes

    family = set()
    for x in conjugacy_classes(G).reps[1:]:
        if (N.bits >> x) & 1:
            continue
        seeds = list(N.witnesses) + [x]
        bits = G.closure_bits(seeds)
        for s in seeds:  # grows while it is walked
            for g in G.generator_indices:
                c = G.mult(G.mult(G.inv(g), s), g)
                if not (bits >> c) & 1:
                    seeds.append(c)
                    bits = G.closure_bits(seeds)
        family.add(bits)
    minimal = [b for b in family if not any(c != b and c & ~b == 0 for c in family)]
    return sorted(minimal, key=lambda b: (b.bit_count(), b))


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


def conjugation_orbit(G: PermGroup, bits: int) -> set[int]:
    """The conjugates of a subgroup bitset: its orbit under conjugation by
    G's generators."""
    orbit = {bits}
    frontier = [bits]
    while frontier:
        b = frontier.pop()
        for g in G._bfs_gen_indices:
            c = G.conj_bits(b, g)
            if c not in orbit:
                orbit.add(c)
                frontier.append(c)
    return orbit


def complements(G: PermGroup, X, Y) -> tuple[Subgroup, ...]:
    """Every U <= G with UX = G and U n X = Y, for an abelian chief factor X/Y.

    The section is checked as ``factor_module`` checks it, and every
    complement is a conjugate of one of the complement system's class
    representatives (``crowns._complement_system``): their conjugation
    orbits, in order, each member once.
    """
    from chebotarev.crowns import _check_chief_factor, _complement_system

    _check_chief_factor(G, X, Y)
    found: dict[int, None] = {}
    for U in _complement_system(G, X, Y):
        found.update(dict.fromkeys(sorted(conjugation_orbit(G, U.bits))))
    return tuple(Subgroup(G, b) for b in found)


def complements_by_lattice_scan(G: PermGroup, X, Y) -> set[int]:
    """Bitsets of the subgroups U with U n X = Y and |U||X| = |G||Y|, i.e. UX = G."""
    from chebotarev.subgroups import all_subgroups

    return {
        U.bits
        for U in all_subgroups(G)
        if U.bits & X.bits == Y.bits and U.order * X.order == G.order * Y.order
    }


def complement_by_lattice_scan(G: PermGroup, X, Y) -> bool:
    """Some subgroup U has U n X = Y and |U||X| = |G||Y|, i.e. UX = G."""
    return bool(complements_by_lattice_scan(G, X, Y))


def is_complemented(G: PermGroup, X, Y) -> bool:
    """True iff some U <= G satisfies UX = G and U n X = Y (abelian chief X/Y).

    Whether the complement system of X/Y (``crowns._complement_system``)
    has a solution, after the section is checked as ``factor_module``
    checks it: ``NotChiefFactorError`` if a normal subgroup of G lies
    strictly between Y and X.
    """
    from chebotarev.crowns import _check_chief_factor, _complement_system

    _check_chief_factor(G, X, Y)
    return bool(_complement_system(G, X, Y))


def section_centralizer(G: PermGroup, X, Y) -> Subgroup:
    """The subgroup {g : [g, x] in Y for all x in X} for an abelian section X/Y.

    Requires Y <= X with both normal in G and X/Y abelian, else
    ``BadSectionError``. Checking commutators against the witnesses of X
    suffices because Y is normal.
    """
    from chebotarev.errors import BadSectionError

    if X.group is not G or Y.group is not G or Y.bits & ~X.bits:
        raise BadSectionError("X/Y is not a section of G")
    if not (normal_by_conjugation(X) and normal_by_conjugation(Y)):
        raise BadSectionError("X and Y must be normal in G")
    if not all((Y.bits >> G.commutator(a, b)) & 1 for a in X.members() for b in X.members()):
        raise BadSectionError("section X/Y is not abelian")
    bits = 0
    for g in range(G.order):
        if all((Y.bits >> G.commutator(g, x)) & 1 for x in X.witnesses):
            bits |= 1 << g
    return Subgroup(G, bits)


def element_order(G: PermGroup, i: int) -> int:
    """Order of element ``i``, by multiplying by it until the identity."""
    k = 1
    x = i
    while x != 0:
        x = G.mult(x, i)
        k += 1
    return k


def module_order(V) -> int:
    """|V| = p^n of a chief factor module."""
    return V.p**V.n_raw


def maximal_classes_by_pairs(G: PermGroup) -> list[tuple[int, int, int, int]]:
    """``(rep_bits, class_size, union_bits, core_bits)`` per maximal class.

    A proper subgroup is maximal when no other proper subgroup contains
    it; classes are its orbits under conjugation by G's generators, with
    the least bitset as representative, sorted by (order, bits).
    """
    from chebotarev.subgroups import all_subgroups

    # all_subgroups sorts by order, so only the subgroups after h can hold
    # it; the largest are tried first, as they hold the most
    top = [s.bits for s in reversed(all_subgroups(G)) if s.order < G.order]
    return classes_by_conjugation(
        G, {h for i, h in enumerate(top) if not any(h & ~k == 0 for k in top[:i])}
    )


def maximal_classes_by_orbits(G: PermGroup) -> list[tuple[int, int, int, int]]:
    """``maximal_classes(G)`` as ``maximal_classes_by_pairs`` lists classes:
    ``(rep_bits, class_size, union_bits, core_bits)`` of each representative's
    conjugation orbit, sorted by (order, bits)."""
    from chebotarev.subgroups import maximal_classes

    classes = [classes_by_conjugation(G, {mc.representative.bits})[0] for mc in maximal_classes(G)]
    return sorted(classes, key=lambda c: (c[0].bit_count(), c[0]))


def classes_by_conjugation(G: PermGroup, maximal: set[int]) -> list[tuple[int, int, int, int]]:
    """``(rep_bits, class_size, union_bits, core_bits)`` per conjugacy class.

    Classes of the given subgroup bitsets are their orbits under
    conjugation of every member by G's generators, with the least bitset
    as representative, sorted by (order, bits).
    """
    maximal = set(maximal)
    classes = []
    while maximal:
        orbit = conjugation_orbit(G, min(maximal))
        maximal -= orbit
        union, core = 0, G.full_bits
        for b in orbit:
            union |= b
            core &= b
        classes.append((min(orbit), len(orbit), union, core))
    return sorted(classes, key=lambda c: (c[0].bit_count(), c[0]))


def normal_by_conjugation(H: Subgroup) -> bool:
    """H is normal: every generator of G conjugates all of H onto H."""
    G = H.group
    return all(G.conj_bits(H.bits, g) == H.bits for g in G._bfs_gen_indices)


def derived_series_bits(G: PermGroup) -> list[int]:
    """Descending derived series as bitmasks, ending at its stable term."""
    series = [G.full_bits]
    witnesses = list(G._bfs_gen_indices)
    while True:
        comms = {
            G.commutator(a, b) for a in witnesses for b in witnesses
        } - {0}
        if not comms:
            series.append(1)
            break
        nxt = G.normal_closure_bits(comms)
        if nxt == series[-1]:
            break
        series.append(nxt)
        if nxt == 1:
            break
        witnesses = list(G.witnesses_for_bits(nxt))
    return series


def min_generators_by_lattice(G: PermGroup) -> int:
    """d(G) as the length of G's witnesses in the breadth-first lattice walk."""
    from chebotarev.subgroups import all_subgroups

    return len(all_subgroups(G)[-1].witnesses)


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


def class_unions(G: PermGroup) -> list[int]:
    """The conjugate-union of each of ``maximal_classes(G)``, as |G| bits:
    the union of its representative's conjugation orbit."""
    from chebotarev.subgroups import maximal_classes

    return [
        functools.reduce(operator.or_, conjugation_orbit(G, mc.representative.bits))
        for mc in maximal_classes(G)
    ]


def reduced_unions(G: PermGroup) -> list[int]:
    """The reduced sieve family at element level: the maximal classes'
    conjugate-unions (``class_unions``), deduplicated, with every union
    inside another dropped, in increasing order of the unions' class masks
    (the order of the bits of ``build_sieves``' class signatures)."""
    unions = set(class_unions(G))
    reduced = [u for u in unions if not any(v != u and u | v == v for v in unions)]
    return sorted(reduced, key=lambda u: class_mask(G, u))


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


def alive_chain(sizes, sigs) -> dict[int, dict[int, int]]:
    """The alive-mask chain from the identity's signature, the OR of all
    ``sigs``: every reachable mask s maps to {s & sigma: total size of the
    classes of signature sigma}, reading every class at every mask, with
    the masks in increasing order (topological, as moves go to submasks)."""
    chain: dict[int, dict[int, int]] = {}
    todo = [functools.reduce(operator.or_, sigs, 0)]
    while todo:
        s = todo.pop()
        if s in chain:
            continue
        out: dict[int, int] = {}
        for sig, w in zip(sigs, sizes):
            out[s & sig] = out.get(s & sig, 0) + w
        chain[s] = out
        todo.extend(t for t in out if t not in chain)
    return dict(sorted(chain.items()))


def expected_wait(order: int, chain: dict[int, dict[int, int]]) -> Fraction:
    """Expected draws until the alive mask empties, from the chain's top.

    E[0] = 0 and E[s] = (|G| + sum of w * E[t] over moves t != s) / (|G| - w_stay),
    solved in increasing mask order. Each E[s] is kept as a reduced pair
    (numerator, denominator) of integers: the moves are summed over the
    lcm of their denominators and reduced by one gcd, and the start's pair
    becomes the one ``Fraction``. A nonempty mask that every draw keeps
    (a union covering G) has no finite wait and raises ``InvariantError``.
    """
    from chebotarev.errors import InvariantError

    E: dict[int, tuple[int, int]] = {}
    for s, out in chain.items():
        if s == 0:
            E[s] = (0, 1)
            continue
        leave = order - out.get(s, 0)
        if leave == 0:
            raise InvariantError(f"no draw leaves the alive mask {s:#x}: a union covers G")
        moves = [(w, E[t]) for t, w in out.items() if t != s]
        den = math.lcm(*[d for _, (_, d) in moves])
        num = order * den + sum([w * n * (den // d) for w, (n, d) in moves])
        den *= leave
        g = math.gcd(num, den)
        E[s] = (num // g, den // g)
    return Fraction(*E[s])  # the last, largest mask is the start


def propagated_invariable_prob(order: int, chain: dict[int, dict[int, int]], k: int) -> Fraction:
    """P_I(G, k) by carrying the integer weight of the k-tuples reaching
    each nonempty alive mask forward k steps from the chain's top."""
    top = max(chain)
    alive = {top: 1} if top else {}
    for _ in range(k):
        step: dict[int, int] = {}
        for s, c in alive.items():
            for t, w in chain[s].items():
                if t:
                    step[t] = step.get(t, 0) + c * w
        alive = step
    return 1 - Fraction(sum(alive.values()), order**k)


def mat_identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(A, B, p: int):
    n = len(A)
    m = len(B[0])
    k = len(B)
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(k)) % p for j in range(m))
        for i in range(n)
    )


def element_matrices(H: PermGroup, gen_matrices, p: int) -> list:
    """Action matrix per element of H, matrices given per H.generators.

    Walks H's BFS tree: the matrix of x*g is M_g @ M_x (right action).
    """
    by_images = {g.images: M for g, M in zip(H.generators, gen_matrices)}
    n = len(gen_matrices[0]) if gen_matrices else 0
    mats = [mat_identity(n)] * H.order
    for j in range(1, H.order):
        gen_mat = by_images[H._bfs_gens[H._via[j]].images]
        mats[j] = mat_mul(gen_mat, mats[H._parent[j]], p)
    return mats


def commutant_field_by_span(gen_matrices, p: int):
    """(q, n) of a module's commutant field, or None if the commutant is
    not a field: every nonzero element of the commutant (from the same
    intertwiner solve as ``endo_field``) is tested for invertibility, so a
    finite division algebra, which is a field, is what passes."""
    from chebotarev.crowns import _intertwiner_space, mat_rank

    nr = len(gen_matrices[0])
    basis = _intertwiner_space(gen_matrices, gen_matrices, nr, p)
    span = [(0,) * (nr * nr)]
    for b in basis:
        span += [tuple((x + c * y) % p for x, y in zip(v, b)) for v in span for c in range(1, p)]
    for v in span[1:]:
        if mat_rank([v[i * nr : (i + 1) * nr] for i in range(nr)], p) < nr:
            return None
    return p ** len(basis), nr // len(basis)


def brute_derivation_count(H: PermGroup, gen_matrices, p: int) -> tuple[int, int]:
    """(|Z^1|, |B^1|) by exhaustive generator-image search.

    A candidate assigns a vector to each member of a minimal generating
    tuple of H; it extends uniquely along the BFS tree of the group those
    members generate by zeta(x*g) = zeta(x)^g + zeta(g) and is a
    derivation iff that relation holds on every (element, generator)
    pair. Inner derivations are counted as the distinct images
    (v^g - v)_g of all vectors v. Matrices align with ``H.generators``.
    """
    n = len(gen_matrices[0])
    vectors = list(itertools.product(range(p), repeat=n))

    def act(M, v):
        return tuple(sum(M[i][j] * v[j] for j in range(n)) % p for i in range(n))

    elem_mats = element_matrices(H, gen_matrices, p)
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
            for kk, col in enumerate(H2._right):
                y, k = col[x], slot[kk]
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


def shuffled_sieves(S, seed: int):
    """The sieve system ``S`` with its sieves in a random order: bit i of
    every class signature moves to bit perm[i], perm drawn from ``seed``."""
    import dataclasses
    import random

    perm = list(range(S.sieve_count))
    random.Random(seed).shuffle(perm)
    sigs = tuple(
        sum(1 << perm[i] for i in range(S.sieve_count) if sig >> i & 1)
        for sig in S.class_signatures
    )
    return dataclasses.replace(S, class_signatures=sigs)


def mc_waits_by_trial(S, trials: int, seed: int) -> list[int]:
    """Waiting time of every trial under Monte Carlo stream version 2.

    Each step draws one element per alive trial, in trial order; masks are
    unbounded Python ints over all reduced unions. The draws come from
    numpy's ``Generator.integers``, not from ``mc._blocks``, which derives
    the same values from the raw words.
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


def lemire_draws(candidates, order: int) -> list[int]:
    """Values of numpy's 32-bit bounded draw on ``integers(0, order)`` from
    the given 32-bit outputs, one candidate at a time.

    As numpy's ``buffered_bounded_lemire_uint32``: a candidate x gives
    m = x * order and the value m >> 32, and is dropped when the low 32
    bits of m fall below 2^32 mod order.
    """
    threshold = (1 << 32) % order
    return [x * order >> 32 for x in candidates if (x * order) & 0xFFFFFFFF >= threshold]


def quotient_by_mult(G: PermGroup, N: Subgroup) -> tuple[PermGroup, tuple[int, ...]]:
    """(Q, epi) for G/N with one ``G.mult`` per (coset, element) pair.

    Cosets Nt are listed by least element t, and each element's coset
    permutation is built point by point from products with every
    representative, so neither table columns nor the coset partition of
    ``PermGroup.right_cosets`` is read.
    """
    cid = [-1] * G.order
    reps: list[int] = []
    for t in range(G.order):
        if cid[t] < 0:
            for x in N.members():
                cid[G.mult(x, t)] = len(reps)
            reps.append(t)

    def coset_perm(x: int) -> tuple[int, ...]:
        return tuple(cid[G.mult(r, x)] for r in reps)

    Q = PermGroup(len(reps), [Permutation(coset_perm(g)) for g in G.generator_indices])
    return Q, tuple(Q.index[coset_perm(i)] for i in range(G.order))


def section_kernel(mod) -> Subgroup:
    """The elements of the ambient group acting trivially on the module."""
    G = mod.group
    ident = mat_identity(mod.n_raw)
    mats = element_matrices(G, mod.gen_matrices, mod.p)
    return Subgroup(G, sum(1 << i for i, M in enumerate(mats) if M == ident))


@functools.lru_cache(maxsize=32)
def socle_factor_modules_by_quotient(G: PermGroup, core_bits: int):
    """Modules on the abelian minimal normal subgroups of an explicit G/core(M).

    The quotient's generators are the images of G's, in order, so its
    matrices align with G's generator list; None marks a nonabelian one.
    Kept for the last few (G, core), as every crown class reads them.
    """
    from chebotarev.crowns import factor_module
    from chebotarev.perm import quotient
    from chebotarev.subgroups import minimal_normal_subgroups

    Q, _ = quotient(G, Subgroup(G, core_bits))
    mods = []
    for N in minimal_normal_subgroups(Q):
        abelian = all(
            Q.commutator(a, b) == 0 for a in N.witnesses for b in N.witnesses
        )
        mods.append(factor_module(Q, N, Subgroup.trivial(Q)) if abelian else None)
    return mods


def omega_by_quotient_socles(G: PermGroup, maximals, V) -> int:
    """The Omega_V mask by the socle rule, on explicitly built G/core(M).

    M is a member iff the minimal normal subgroups of G/core(M) are all
    abelian and either there is one, G-isomorphic to V, or there are two,
    both G-isomorphic to V (``socle_factor_modules_by_quotient``). The
    core of each class's representative is the intersection of its
    conjugation orbit (``classes_by_conjugation``).
    """
    from chebotarev.crowns import g_isomorphic

    mask = 0
    for ci, mc in enumerate(maximals):
        [(_, _, _, core)] = classes_by_conjugation(G, {mc.representative.bits})
        mods = socle_factor_modules_by_quotient(G, core)
        if any(m is None for m in mods) or len(mods) > 2:
            continue
        if all(g_isomorphic(m, V) for m in mods):
            mask |= 1 << ci
    return mask


def ratio_holds_by_decimal(alpha: Fraction, group_order: int, u_order: int) -> bool:
    """alpha / sqrt(|G|) < (5/3)(1 - 1/sqrt(|U|)), in 60-digit decimals.

    Raises ``ValueError`` when the two sides are too close for 60 digits
    to decide.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        D = decimal.Decimal
        lhs = D(alpha.numerator) / D(alpha.denominator) / D(group_order).sqrt()
        rhs = 5 * (1 - 1 / D(u_order).sqrt()) / 3
        if abs(lhs - rhs) < D(10) ** -50:
            raise ValueError("the ratio is too close to its bound to decide")
        return lhs < rhs


# -- random groups as a differential oracle --------------------------------

RANDOM_ORDER_CAP = 2000


def random_group(family: str, seed: int) -> PermGroup:
    """A random permutation group of order at most ``RANDOM_ORDER_CAP``.

    ``family`` is ``"sym"``, the group generated by one to three uniform
    permutations of n points for a uniform 3 <= n <= 8, or ``"pair"``,
    a subgroup of S_a x S_b (2 <= a, b <= 5) whose one to three
    generators each act on both blocks at once, by a uniform permutation
    of each. A draw whose group passes the order cap or is trivial is
    thrown away, and the next is made from the same ``random.Random(seed)``,
    so a seed always gives the same group.
    """
    import random

    from chebotarev.errors import OrderCapError

    rng = random.Random(seed)

    def shuffled(n: int, start: int = 0) -> list[int]:
        images = list(range(start, start + n))
        rng.shuffle(images)
        return images

    while True:
        if family == "sym":
            n = rng.randint(3, 8)
            gens = [shuffled(n) for _ in range(rng.randint(1, 3))]
        elif family == "pair":
            a, b = rng.randint(2, 5), rng.randint(2, 5)
            n = a + b
            gens = [shuffled(a) + shuffled(b, a) for _ in range(rng.randint(1, 3))]
        else:
            raise ValueError(f"unknown family {family!r}")
        try:
            G = PermGroup(n, [Permutation(g) for g in gens], order_cap=RANDOM_ORDER_CAP)
        except OrderCapError:
            continue
        if G.order > 1:
            return G


#: (family, seed), taken from seeds 0-119 of each family, weighted to the
#: insoluble groups: in each family, insoluble groups of order at most 400
#: with one or two of order 720 and, from S_n, AGL(3, 2) of order 1344
#: (seed 24), then soluble groups of order 8 to 400. A seed that fails
#: stays here, with its defect named in CHANGES.md.
RANDOM_CASES = (
    [("sym", s) for s in (0, 11, 13, 16, 17, 24, 35, 37, 38, 41, 50, 60, 65, 68, 71, 76, 77)]
    + [("sym", s) for s in (1, 3, 4, 8, 19, 20, 26, 39)]
    + [("pair", s) for s in (6, 11, 45, 50, 54, 56, 63, 64, 65, 68, 75, 79, 82, 97, 106)]
    + [("pair", s) for s in (1, 3, 7, 8, 9, 10, 15, 17, 18, 20)]
)

#: ``random_group`` built once per (family, seed), so every test module
#: reads the same group and what is kept per group is computed once.
random_case = functools.cache(random_group)


def radical_order(G: PermGroup) -> int:
    """|R|, the order of the soluble radical, read off G's chief series."""
    from chebotarev.crowns import _radical_index, chief_series

    series = chief_series(G)
    return series.subgroups[_radical_index(series)].order


def class_mask(G: PermGroup, bits: int) -> int:
    """Bit c for each conjugacy class c of G whose representative lies in ``bits``.

    On a union of conjugacy classes, such as a conjugate-union, this is
    the set of classes it holds.
    """
    from chebotarev.perm import conjugacy_classes

    return sum(1 << c for c, r in enumerate(conjugacy_classes(G).reps) if bits >> r & 1)


def differential_mismatches(G: PermGroup) -> list[str]:
    """The names of the package's values on G that its oracles contradict.

    - ``maximal_classes``: each class's conjugation orbit against the
      pairwise scan of the lattice (``maximal_classes_by_pairs``), and its
      class mask against the classes its conjugate-union holds;
    - ``min_generators``: against the depth of G in its lattice walk;
    - ``sieves``: the sieves, read back from ``build_sieves``' class
      signatures, against the class masks of the scan's reduced unions;
    - ``chebotarev``: C(G) against subset enumeration over the scan's
      reduced unions, when there are at most 12;
    - ``prob``: P_I(G, k) for k <= 3 against subset enumeration over the
      same unions, when there are at most 12;
    - ``crown_data``: the crown classes against ``crown_summary`` over
      the second oracle chief series;
    - ``omega``: each crown class's Omega mask against the socles of the
      explicitly built quotients G/core(M);
    - ``m``: |Z^1| = |B^1| q^m for each non-central crown class, counted
      by generator-image search on its acting group;
    - ``v_sum``: each non-central crown class's ``v_property_sum`` against
      subset enumeration over the conjugate-unions of the maximal classes
      its Omega mask selects, reduced, when there are at most 12.
    """
    from chebotarev.crowns import crown_data
    from chebotarev.exact import (
        build_sieves,
        chebotarev_of_group,
        invariable_gen_prob,
        omega_membership,
        v_property_sum,
    )
    from chebotarev.subgroups import maximal_classes, min_generators

    def maximal_unions(unions):
        return [u for u in unions if not any(v != u and u | v == v for v in unions)]

    bad = []
    scanned = maximal_classes_by_pairs(G)
    mx = maximal_classes(G)
    per_class = class_unions(G)
    if maximal_classes_by_orbits(G) != scanned or [mc.class_mask for mc in mx] != [
        class_mask(G, u) for u in per_class
    ]:
        bad.append("maximal_classes")
    if min_generators(G) != min_generators_by_lattice(G):
        bad.append("min_generators")
    reduced = maximal_unions(sorted({union for _, _, union, _ in scanned}))
    S = build_sieves(G)
    sigs = S.class_signatures
    sieves = [sum(1 << c for c, sig in enumerate(sigs) if sig >> i & 1) for i in range(len(reduced))]
    if sieves != sorted(class_mask(G, u) for u in reduced) or any(sig >> len(reduced) for sig in sigs):
        bad.append("sieves")
    if len(reduced) <= 12 and (
        chebotarev_of_group(G).exact != naive_cheb_from_unions(G.order, reduced)
    ):
        bad.append("chebotarev")
    if len(reduced) <= 12 and any(
        invariable_gen_prob(S, k) != naive_prob_from_unions(G.order, reduced, k) for k in range(4)
    ):
        bad.append("prob")
    cd = crown_data(G)
    got_crowns = sorted(
        (V.p, V.n_raw, V.q, V.n, V.delta, V.central, V.h_order) for V in cd.A + cd.B
    )
    if got_crowns != crown_summary(G, chief_series_variant(G, 1)):
        bad.append("crown_data")
    if any(omega_membership(G, V) != omega_by_quotient_socles(G, mx, V) for V in cd.A + cd.B):
        bad.append("omega")
    for V in cd.A:
        der, inner = brute_derivation_count(V.acting_group, V.gen_matrices, V.p)
        if der != inner * V.q**V.m:
            bad.append("m")
            break
    for V in cd.A:
        mask = omega_membership(G, V)
        picked = maximal_unions({u for i, u in enumerate(per_class) if mask >> i & 1})
        if len(picked) > 12:
            continue
        if v_property_sum(G, mask) != naive_cheb_from_unions(G.order, picked):
            bad.append("v_sum")
            break
    return bad
