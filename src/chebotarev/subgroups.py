"""Subgroup enumeration, maximal classes, Frattini subgroup, minimal generators.

``maximal_classes`` and ``min_generators`` take one route for every
group, through its soluble radical R (``crowns``): the maximal subgroups
are the complements of the chief factors below R and the preimages of the
maximal subgroups of G/R, and d(G) is the larger of d(G/R) and the crown
count. A maximal class is one representative and the mask of G's
classes that meet it. Only G/R walks the subgroup lattice: that is G
itself when R = 1, and a soluble G (R = G) walks none. The lattice of
all of G otherwise serves the test oracles.

The chief series climbs by ``_minimal_normal(G, N)`` on the terms it
built itself, unchecked (``minimal_normal_subgroups`` checks the N a
caller hands in): each minimal normal subgroup of G/N is N C_x for any
x in it outside N, C_x the normal closure of x, and only classes of
prime-power order are closed (``_minimal_normal`` says why). The
complements of each abelian chief factor X/Y then solve one cocycle
system (``crowns._complement_system``), with one unknown per generator
of G outside X.

Enumeration is exhaustive (every subgroup exactly once) and runs up to
conjugacy (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 2005): from ``<x>`` for one x per conjugacy class, only the
first-found member H of each class of subgroups is extended by one more
element g. A new class is filled in as the orbit of its first member
under conjugation by G's generators (``PermGroup.conj_map``), each
member carrying its witnesses conjugated along the orbit, and is kept as
built (``subgroup_classes``): ``crowns.maximal_subgroups`` takes the
maximal classes of G/R from there. Three facts keep each extension cheap:

- ``<H, g>`` depends only on the double coset ``HgH`` (the orbit of
  ``Hg`` under right multiplication by H's witnesses), so one ``g`` per
  double coset is tried, its least element.
- ``<H, g>`` is a union of right cosets of H and ``Hr * s = H(rs)``
  (Dimino's extension), so it is grown coset by coset: it is the union
  of the cosets in the orbit of H under right multiplication by H's
  witnesses and ``g``.
- By Lagrange, a proper subgroup above H has at most ``|G:H| / p``
  cosets of H, for p the least prime dividing ``|G:H|``. Once the orbit
  holds more, ``<H, g>`` is G, and the growth stops.

The walk is breadth-first, so witnesses are a shortest generating
tuple: if ``K = <h_1, ..., h_k>``, then ``<h_1, ..., h_{k-1}>`` is
conjugate by some c to a first-found H of depth at most k - 1
(induction), and ``K^c = <H, h_k^c>`` is found from H's double coset of
``h_k^c`` at depth at most k. So d(G) is the length of G's witnesses.

Each class partitions G into right cosets once, in O(|G|), and reads
the coset actions through ``PermGroup.column_at``: off kept product
columns, or above order 1500 along generator words. On a 2-core Xeon the
walk alone takes a median 0.08 s over the 1455 subgroups of
``symmetric 6`` (56 classes) and 0.65 s over the 3786 of
``alternating 7`` (40 classes) (``BENCH_17.json``); the element-table
cap is the only size guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import islice
from math import gcd, isqrt
from operator import itemgetter
from typing import Optional

from .errors import (
    BadSectionError, InvariantError, NotNormalError, NotPrimeError, TrivialGroupError
)
from .perm import PermGroup, Subgroup, _coset_action, bits_iter, conjugacy_classes, per_group


@cache
def _least_prime(n: int) -> int:
    # the smallest prime divisor of n >= 2: a composite n has one at most
    # isqrt(n), so n is its own when trial division finds none below; kept
    # per n, as the same orders recur across the chief series
    return next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)


def check_prime(p: int) -> None:
    """Raise ``NotPrimeError`` unless p is prime."""
    if p < 2 or _least_prime(p) != p:
        raise NotPrimeError(f"{p} is not prime")


def _is_prime_power(n: int) -> bool:
    # n >= 2 is a power of its least prime
    p = _least_prime(n)
    while n % p == 0:
        n //= p
    return n == 1


def all_subgroups(G: PermGroup) -> list[Subgroup]:
    """Every subgroup of G exactly once, sorted by (order, bitset).

    Includes the trivial and the full subgroup. Each subgroup's witnesses
    are a shortest generating tuple. The walk is kept per group, with the
    same subgroups in the classes it built (``subgroup_classes``).
    """
    return _lattice(G)[0]


def subgroup_classes(G: PermGroup) -> list[list[Subgroup]]:
    """``all_subgroups(G)`` in conjugacy classes, first-found member first."""
    all_subgroups(G)  # the walk runs, and is timed, under all_subgroups
    return _lattice(G)[1]


@per_group
def _lattice(G: PermGroup) -> tuple[list[Subgroup], list[list[Subgroup]]]:
    # (all_subgroups, subgroup_classes): the walk of the module docstring
    seen: dict[int, tuple[int, ...]] = {1: ()}
    queue: list[int] = []
    classes = [[1]]

    def found(bits: int, wits: tuple[int, ...]) -> None:
        # a new class: queue its first member, and fill in the rest as its
        # orbit under conjugation, carrying the witnesses along
        if bits in seen:
            return
        seen[bits] = wits
        queue.append(bits)
        orbit = [bits]
        for b in orbit:  # grows while it is walked
            for g in G._bfs_gen_indices:
                c = G.conj_bits(b, g)
                if c not in seen:
                    seen[c] = tuple([G.conj_map(g)[w] for w in seen[b]])
                    orbit.append(c)
        classes.append(orbit)

    for x in conjugacy_classes(G).reps[1:]:
        found(G.closure_bits((x,)), (x,))
    full = G.full_bits
    for hbits in queue:  # grows while it is walked
        if hbits == full:
            continue
        wits = seen[hbits]
        reps, cid, cbits = G.right_cosets(hbits)
        m = len(reps)
        # a proper subgroup above H has at most m/p cosets of H, counting
        # H itself, for p the least prime dividing m = |G:H| (Lagrange)
        most = m // _least_prime(m)
        coset_action = _coset_action(G, reps, cid)
        wacts = [coset_action(w) for w in wits]
        tried = [False] * m
        tried[0] = True
        stamp = [0] * m
        # one g per double coset HgH, the orbit of Hg under H's witnesses
        for c in range(1, m):
            if tried[c]:
                continue
            tried[c] = True
            double = [c]
            for x in double:
                for act in wacts:
                    y = act[x]
                    if not tried[y]:
                        tried[y] = True
                        double.append(y)
            # <H, g> is H (coset 0) and the orbit of HgH under right
            # multiplication by wits + (g,); HgH is closed under the
            # witnesses, so only g acts on it. The walk stops once more
            # cosets than a proper subgroup has are found.
            g = reps[c]
            gact = coset_action(g)
            acts = wacts + [gact]
            orbit = double  # every coset found but H
            stamp[0] = c
            for x in orbit:
                stamp[x] = c
            start = len(orbit)
            for x in orbit[:start]:
                y = gact[x]
                if stamp[y] != c:
                    stamp[y] = c
                    orbit.append(y)
            for x in islice(orbit, start, None):
                if len(orbit) >= most:
                    break
                for act in acts:
                    y = act[x]
                    if stamp[y] != c:
                        stamp[y] = c
                        orbit.append(y)
            if len(orbit) >= most:
                kbits = full
            else:
                kbits = hbits + sum([cbits[x] for x in orbit])  # disjoint cosets
            found(kbits, wits + (g,))
    subs = {bits: Subgroup(G, bits, wits) for bits, wits in seen.items()}
    return (
        sorted(subs.values(), key=lambda s: (s.order, s.bits)),
        [[subs[b] for b in orbit] for orbit in classes],
    )


@dataclass(frozen=True)
class MaximalClassData:
    """One conjugacy class of maximal subgroups: a representative M and
    ``class_mask``, bit c set for each conjugacy class c of G that meets M.

    An element lies in some conjugate of M iff its class meets M, so the
    mask is the conjugate-union of M read over G's classes.
    """

    representative: Subgroup
    class_mask: int


@per_group
def maximal_classes(G: PermGroup) -> list[MaximalClassData]:
    """Conjugacy classes of maximal subgroups, by representative (order, bitset).

    One representative per class comes from ``crowns.maximal_subgroups``,
    and its class mask is one pass over its elements: no conjugate is built.
    """
    from .crowns import maximal_subgroups

    table = conjugacy_classes(G)
    every = (1 << len(table.reps)) - 1
    classes: list[MaximalClassData] = []
    for M in maximal_subgroups(G):
        mask = sum([1 << c for c in {table.class_of[x] for x in bits_iter(M.bits)}])
        if mask == every:
            raise InvariantError("conjugate-union of a maximal covers G")
        classes.append(MaximalClassData(representative=M, class_mask=mask))
    classes.sort(key=lambda c: (c.representative.order, c.representative.bits))
    return classes


def frattini(G: PermGroup) -> Subgroup:
    """Intersection of all maximal subgroups (trivial subgroup for |G|=1).

    The maximal subgroups are the conjugates of the class representatives,
    and core(A n B) = core(A) n core(B), so Phi(G) is the core of the
    representatives' intersection: the set that conjugation by G's
    generators no longer shrinks.
    """
    bits = G.full_bits
    for mc in maximal_classes(G):
        bits &= mc.representative.bits
    last = 0
    while last != bits:
        last = bits
        for g in G._bfs_gen_indices:
            bits &= G.conj_bits(bits, g)
    return Subgroup(G, bits)


_cosets = per_group(PermGroup.right_cosets)  # each partition once per G


def minimal_normal_subgroups(
    G: PermGroup, N: Optional[Subgroup] = None
) -> list[Subgroup]:
    """The minimal normal subgroups of G/N as preimages in G, by (order, bitset).

    N must be a subgroup of G, else ``BadSectionError``, normal (default:
    trivial), else ``NotNormalError``, and proper, else ``TrivialGroupError``.
    """
    if N is not None and N.group is not G:
        raise BadSectionError("N belongs to a different group")
    nbits = 1 if N is None else N.bits
    if nbits == G.full_bits:
        raise TrivialGroupError("G/N is trivial, so it has no minimal normal subgroups")
    if N is not None and not N.is_normal():
        raise NotNormalError("N must be normal in G")
    return _minimal_normal(G, nbits)


def _minimal_normal(G: PermGroup, nbits: int) -> list[Subgroup]:
    """``minimal_normal_subgroups`` over the proper normal subgroup ``nbits``.

    Each one is ``N C_x`` for any of its elements x outside N, where C_x
    is the normal closure of x and ``N C_x`` the union of the N-cosets
    meeting C_x. It is enough to take x of prime-power order: for a prime
    q dividing the order of xN, the q-part y of x is a power of x outside
    N, so y serves as well. So the answer is the minimal members of that
    family over one x of prime-power order per conjugacy class, the same
    minimal members as over every class, at every N. Classes whose
    elements generate conjugate cyclic subgroups share one closure, which
    starts from the powers of x that the walk marking those classes lists
    anyway; the closures (``_class_closures``) and the right cosets of N
    are kept per group. The family is taken in (order, bitset) order, and
    a member is minimal iff no minimal member already kept lies inside it.
    """
    _, cid, cbits = _cosets(G, nbits)
    above = {
        sum([cbits[c] for c in set(members(cid))])  # disjoint cosets
        for b, members in _class_closures(G).items()
        if b & ~nbits
    }
    minimal: list[int] = []
    for b in sorted(above, key=lambda b: (b.bit_count(), b)):
        if not any(m & ~b == 0 for m in minimal):
            minimal.append(b)
    return [Subgroup(G, b) for b in minimal]


@per_group
def _class_closures(G: PermGroup) -> dict[int, itemgetter]:
    # the family ``_minimal_normal`` reads: the normal closure of <x> for one
    # x of prime-power order per class, each with one itemgetter of its
    # elements, so its coset ids are one read
    table = conjugacy_classes(G)
    closures = {}
    known = {0}  # classes already walked
    for x in table.reps[1:]:
        if table.class_of[x] in known:
            continue
        # x^k generates <x> for k prime to |x|: the same normal closure
        powers = [x]
        while powers[-1]:
            powers.append(G.mult(powers[-1], x))
        known.update(
            table.class_of[y] for k, y in enumerate(powers, 1) if gcd(k, len(powers)) == 1
        )
        if not _is_prime_power(len(powers)):
            continue
        cyclic = sum([1 << y for y in powers])  # <x>, its powers distinct
        b = G._normal_closure_from(cyclic, [x])
        if b not in closures:
            closures[b] = itemgetter(*bits_iter(b))  # two or more elements
    return closures


def min_generators(G: PermGroup) -> int:
    """d(G): the smallest k such that some k-tuple generates G (0 if trivial).

    With R the soluble radical, d(G) is the maximum of d(G/R), 1, delta_V
    over the central crown classes V of ``crown_data`` and
    1 + ceil((delta_V + m_V) / n_V) over the others. Every crown-based
    power of G has d at most d(G), d(G) is attained on one of them
    (Dalla Volta and Lucchini, J. Austral. Math. Soc. A 64, 1998), the
    nonabelian ones are quotients of G/R, and the abelian ones follow
    Gaschuetz's count (W. Gaschuetz, Illinois J. Math. 3, 1959). d(G/R) is
    the depth of G/R in its lattice walk (see the module docstring), 0 for
    a soluble G.
    """
    if G.order == 1:
        return 0
    from .crowns import crown_data, radical_quotient_min_generators

    cd = crown_data(G)
    return max(
        [radical_quotient_min_generators(G), 1]
        + [V.delta for V in cd.B]
        + [1 + -(-(V.delta + V.m) // V.n) for V in cd.A]
    )
