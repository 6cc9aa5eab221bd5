"""Exact Chebotarev invariants from the alive-mask chain.

A tuple of elements fails to invariably generate G exactly when it lies
inside the conjugate-union of some maximal subgroup, a union of G's
conjugacy classes kept as their mask (``maximal_classes``). After k
draws, the unions still containing every drawn element form the AND of
the drawn classes' signatures: the alive mask. The waiting time C(G) is
the expected number of draws until that mask is empty, and P_I(G, k) the
probability that it is empty after k draws.

Alive masks only move to submasks, so taking the reachable masks in
increasing numeric order solves the expectation in one triangular pass
and propagates k-step weights forward. Each mask reads its moves off the
merged moves of the mask that first reached it, not off every class, and
the expectation is carried as reduced integer pairs, with one
``Fraction`` at the end. Everything is exact big-rational arithmetic;
decimal strings are rendering only.

``maximal_classes(G)`` is the one copy of the maximal-class family. The
sieve system keeps only what the chain reads, and the restricted waiting
sums read G's own classes: ``omega_membership(G, V)`` sets bit i for
class i in Omega_V, and ``v_property_sum(G, mask)`` runs the chain on
the selected classes' masks alone.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .crowns import ChiefFactorModule, _factor_module, chief_series, g_isomorphic
from .errors import BadSectionError, InvariantError, TooManySievesError
from .groupspec import check_prime
from .perm import PermGroup, bits_iter, conjugacy_classes, per_group, quotient
from .subgroups import frattini, maximal_classes

# A guard on the chain engine, whose reachable masks can grow like 2^r.
# 156 is the family of elementary 5 4, the widest in the closed-form sweep
# of ``verify``; the chain solves it with 1120 states in about 0.03 s on a
# 2-core Xeon (0.075 s when every state read every class). Monte Carlo
# has no width limit, so it is the fallback above the cap.
DEFAULT_SIEVE_CAP = 156


def decimal_string(x: Fraction, digits: int) -> str:
    """Round x to the given number of significant digits, as a string."""
    if x == 0:
        return "0"
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        d = decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
        return str(d)


@dataclass(frozen=True)
class SieveSystem:
    """What the alive-mask chain reads of a group's sieves (the trivial group has none).

    The sieves are the maximal classes' class masks, deduplicated, with
    every mask inside another dropped, in increasing numeric order.
    ``class_signatures`` are their transpose: bit i of class c's signature
    is bit c of sieve i. The maximal classes themselves are owned by
    ``maximal_classes(G)``. ``raw_unions`` (each maximal class's mask)
    stays only because the benchmark's trace reads its length as the raw
    sieve count; no module of the package reads it.
    """

    order: int
    class_sizes: tuple[int, ...]
    class_of: tuple[int, ...]
    raw_unions: tuple[int, ...]
    sieve_count: int
    class_signatures: tuple[int, ...]


@dataclass(frozen=True)
class ChebValue:
    """Exact value of C(G) with the size of the computation behind it.

    ``state_count`` is the number of alive masks the chain reached,
    including the empty (absorbing) one.
    """

    exact: Fraction
    sieve_count: int
    state_count: int


def _signatures(masks: Sequence[int], classes: int) -> tuple[int, ...]:
    """The transpose of the class masks: per class c of the ``classes``,
    bit i is set iff ``masks[i]`` holds c."""
    sigs = [0] * classes
    for i, mask in enumerate(masks):
        for c in bits_iter(mask):
            sigs[c] |= 1 << i
    return tuple(sigs)


@per_group
def build_sieves(G: PermGroup) -> SieveSystem:
    """Sieve system of G: the class mask of each maximal class, reduced
    (equal masks merged, contained ones dropped). Kept per group."""
    table = conjugacy_classes(G)
    raw = tuple(mc.class_mask for mc in maximal_classes(G))
    # dropping a union contained in another never changes the union event
    reduced = tuple(
        sorted({u for u in raw if not any(v != u and u & ~v == 0 for v in raw)})
    )
    if (1 << len(table.reps)) - 1 in reduced:
        raise InvariantError("a conjugate-union covers G")
    sigs = _signatures(reduced, len(table.reps))
    if sigs[table.class_of[0]] != (1 << len(reduced)) - 1:
        raise InvariantError("the identity lies outside a conjugate-union")
    return SieveSystem(
        order=G.order,
        class_sizes=table.sizes,
        class_of=table.class_of,
        raw_unions=raw,
        sieve_count=len(reduced),
        class_signatures=sigs,
    )


def _alive_chain(
    sizes: Sequence[int], sigs: Sequence[int], start: int
) -> dict[int, dict[int, int]]:
    """Transitions of the alive-mask chain reachable from ``start``.

    Drawing an element of a class with signature sigma moves the alive
    mask s to s & sigma. Maps every reachable mask to {next mask: total
    class size}, with keys in increasing order; that order is
    topological, since every step goes to a submask. The moves of
    ``start`` merge the classes by their signature masked to it. Every
    other mask t reads its moves off the merged moves of the mask s that
    first reached it, not off every class: t is a submask of s, so
    t & (s & sigma) = t & sigma, and t never reads more moves than s has.
    """
    chain: dict[int, dict[int, int]] = {}
    todo = [(start, zip(sigs, sizes))]
    while todo:
        s, moves = todo.pop()
        if s in chain:
            continue
        out: dict[int, int] = {}
        for sig, w in moves:
            out[s & sig] = out.get(s & sig, 0) + w
        chain[s] = out
        todo.extend((t, out.items()) for t in out if t not in chain)
    return dict(sorted(chain.items()))


def _expected_wait(order: int, chain: dict[int, dict[int, int]]) -> Fraction:
    """Expected draws until the alive mask empties, from the chain's top.

    E[0] = 0 and E[s] = (|G| + sum of w * E[t] over moves t != s) / (|G| - w_stay),
    solved in increasing mask order. Each E[s] is kept as a reduced pair
    (numerator, denominator) of integers: the moves are summed over the
    lcm of their denominators and reduced by one gcd, and the start's pair
    becomes the one ``Fraction``. A nonempty mask that every draw keeps
    (a union covering G) has no finite wait and raises ``InvariantError``.
    """
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


def chebotarev_exact(S: SieveSystem, *, max_sieves: int = DEFAULT_SIEVE_CAP) -> ChebValue:
    """Exact C(G) from the sieve system (alive-mask chain, sieves capped)."""
    r = S.sieve_count
    if r > max_sieves:
        raise TooManySievesError(
            f"{r} reduced sieves exceed the cap of {max_sieves}; fall back to Monte Carlo"
        )
    chain = _alive_chain(S.class_sizes, S.class_signatures, (1 << r) - 1)
    exact = _expected_wait(S.order, chain)
    return ChebValue(exact=exact, sieve_count=r, state_count=len(chain))


def invariable_gen_prob(S: SieveSystem, k: int) -> Fraction:
    """P_I(G, k): probability that k uniform elements invariably generate."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    full = (1 << S.sieve_count) - 1
    chain = _alive_chain(S.class_sizes, S.class_signatures, full)
    # integer weight of the k-tuples reaching each nonempty alive mask
    alive = {full: 1} if full else {}
    for _ in range(k):
        step: dict[int, int] = {}
        for s, c in alive.items():
            for t, w in chain[s].items():
                if t:
                    step[t] = step.get(t, 0) + c * w
        alive = step
    return 1 - Fraction(sum(alive.values()), S.order**k)


def omega_membership(G: PermGroup, V: ChiefFactorModule) -> int:
    """Bitmask over ``maximal_classes(G)`` of the classes M in Omega_V:
    G/core(M) has socle V. Bit i is class i, as ``v_property_sum`` reads it.

    Let N_j be the first term of G's chief series inside M, so inside
    core(M), as N_j is normal: only the representative's bits are read.
    Then M is in Omega_V iff the factor N_{j-1}/N_j is abelian and
    G-isomorphic to V. Proof: N_{j-1} n core(M) is normal in
    G, contains N_j and is not N_{j-1}, so it is N_j, and
    N_{j-1}core(M)/core(M) is a minimal normal subgroup of G/core(M),
    G-isomorphic to N_{j-1}/N_j. If that factor is nonabelian, so is a
    minimal normal subgroup of G/core(M), and M is in no Omega_V. If it is
    abelian, it is the only minimal normal subgroup, since G/core(M) is
    primitive and a primitive group with an abelian minimal normal
    subgroup has no other (Baer). M then complements the factor, as
    M n N_{j-1} is normalized by M and by the abelian N_{j-1}/N_j, so is
    N_j: its module is the one ``crown_data`` built, kept per group by
    ``_factor_module``. A V of another group raises ``BadSectionError``.
    """
    if V.group is not G:
        raise BadSectionError("V belongs to another group")
    series = chief_series(G)
    subs = series.subgroups
    mask = 0
    for ci, mc in enumerate(maximal_classes(G)):
        j = next(j for j, N in enumerate(subs) if N.bits & ~mc.representative.bits == 0)
        if series.factor_abelian[j - 1] and g_isomorphic(
            _factor_module(G, subs[j - 1], subs[j]), V
        ):
            mask |= 1 << ci
    return mask


def v_property_sum(G: PermGroup, omega_mask: int) -> Fraction:
    """Sum over k >= 0 of the probability that k elements of G all lie in
    some union from the selected maximal classes (bit i selects class i of
    ``maximal_classes(G)``, as ``omega_membership`` sets it).

    This is the expected wait of the chain on the signatures of the
    selected classes' masks alone; no reduction is needed, since dropping
    a contained union never changes whether the alive mask is empty.
    Returns 0 for an empty selection; a bit past the last maximal class
    raises ``ValueError``.
    """
    classes = maximal_classes(G)
    if omega_mask >> len(classes):
        raise ValueError("the mask selects a class beyond the maximal classes of G")
    if omega_mask == 0:
        return Fraction(0)
    selected = [mc.class_mask for i, mc in enumerate(classes) if omega_mask >> i & 1]
    sizes = conjugacy_classes(G).sizes
    chain = _alive_chain(sizes, _signatures(selected, len(sizes)), (1 << len(selected)) - 1)
    return _expected_wait(G.order, chain)


def elementary_abelian_cheb(p: int, delta: int) -> Fraction:
    """Closed form sum over i < delta of p^delta / (p^delta - p^i)."""
    check_prime(p)
    if delta < 1:
        raise ValueError("delta must be >= 1")
    pd = p**delta
    return sum((Fraction(pd, pd - p**i) for i in range(delta)), Fraction(0))


def frattini_reduce(G: PermGroup) -> PermGroup:
    """The quotient of G by its Frattini subgroup (idempotent; preserves C)."""
    phi = frattini(G)
    Q, _ = quotient(G, phi)
    return Q


def chebotarev_of_group(
    G: PermGroup, *, max_sieves: int = DEFAULT_SIEVE_CAP
) -> ChebValue:
    """Convenience: build sieves and evaluate C(G); 0 for the trivial group."""
    return chebotarev_exact(build_sieves(G), max_sieves=max_sieves)
