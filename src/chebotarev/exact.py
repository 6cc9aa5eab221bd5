"""Exact Chebotarev invariants from the alive-mask chain.

A tuple of elements fails to invariably generate G exactly when it lies
inside the conjugate-union of some maximal subgroup, a union of G's
conjugacy classes kept as their mask (``maximal_classes``). After k
draws, the unions still containing every drawn element form the AND of
the drawn classes' signatures: the alive mask. The wait n is the number of
draws until that mask is empty: C(G) is its mean and P_I(G, k) = P(n <= k).

Alive masks only move to submasks, so one depth-first walk over the
reachable masks gives each its law of the wait in post-order, with no
chain stored or sorted (``_wait_law``), and a sieve system keeps the law
of its first reading: C(G), P_I(G, k) at every k and the restricted
waiting sums are sums over its terms. Each mask reads its moves off the
merged moves of the mask that pushed it, not off every class. Everything
is exact big-rational arithmetic; decimal strings are rendering only.

``maximal_classes(G)`` is the one copy of the maximal-class family, and
one builder turns class masks into a sieve system: ``build_sieves(G)``
gives it every maximal class's mask, and ``v_property_sum(G, mask)`` the
masks of the classes that ``omega_membership(G, V)`` selects in Omega_V
(bit i is class i of G's own maximal classes).
"""

from __future__ import annotations

import decimal
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .crowns import ChiefFactorModule, _factor_module, chief_series, g_isomorphic
from .errors import BadSectionError, InvariantError, TooManySievesError
from .perm import PermGroup, bits_iter, conjugacy_classes, per_group, quotient
from .subgroups import check_prime, frattini, maximal_classes

# A guard on the chain engine, whose reachable masks can grow like 2^r.
# 156 is elementary 5 4, the widest in the closed-form sweep of ``verify``:
# 1120 states, 0.02 to 0.03 s on a shared 2-core Xeon with Python 3.11.7.
# Above the cap, Monte Carlo, which has no width limit, is the fallback.
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

    The sieves are the class masks it was built from, deduplicated, with
    every mask inside another dropped, in increasing numeric order.
    ``class_signatures`` are their transpose: bit i of class c's signature
    is bit c of sieve i. ``raw_unions`` (the masks as given) stays only
    because the benchmark's trace reads its length as the raw sieve count;
    no module of the package reads it. ``_law``, the law of the wait and
    the number of alive masks reached, is walked on its first reading and
    kept: a system only simulated never walks.
    """

    order: int
    class_sizes: tuple[int, ...]
    class_of: tuple[int, ...]
    raw_unions: tuple[int, ...]
    sieve_count: int
    class_signatures: tuple[int, ...]

    @functools.cached_property
    def _law(self) -> tuple[dict[int, int], int]:
        return _wait_law(self.class_sizes, self.class_signatures)


@dataclass(frozen=True)
class ChebValue:
    """Exact value of C(G) with the size of the computation behind it.

    ``state_count`` is the number of alive masks the chain reached,
    including the empty (absorbing) one.
    """

    exact: Fraction
    sieve_count: int
    state_count: int


def _sieve_system(G: PermGroup, masks: tuple[int, ...]) -> SieveSystem:
    """G's sieve system on the given maximal classes' masks: equal masks
    merged, contained ones dropped, the rest transposed into signatures."""
    table = conjugacy_classes(G)
    # dropping a union contained in another never changes the union event
    reduced = sorted({u for u in masks if not any(v != u and u & ~v == 0 for v in masks)})
    if (1 << len(table.reps)) - 1 in reduced:
        raise InvariantError("a conjugate-union covers G")
    sigs = [0] * len(table.reps)
    for i, mask in enumerate(reduced):
        for c in bits_iter(mask):
            sigs[c] |= 1 << i
    if sigs[table.class_of[0]] != (1 << len(reduced)) - 1:
        raise InvariantError("the identity lies outside a conjugate-union")
    return SieveSystem(
        order=G.order,
        class_sizes=table.sizes,
        class_of=table.class_of,
        raw_unions=masks,
        sieve_count=len(reduced),
        class_signatures=tuple(sigs),
    )


@per_group
def build_sieves(G: PermGroup) -> SieveSystem:
    """Sieve system of G: the class mask of each maximal class, reduced
    (equal masks merged, contained ones dropped). Kept per group."""
    return _sieve_system(G, tuple(mc.class_mask for mc in maximal_classes(G)))


def _wait_law(sizes: Sequence[int], sigs: Sequence[int]) -> tuple[dict[int, int], int]:
    """The law of the wait n from the identity's signature, the OR of all
    ``sigs``, and the number of alive masks reached.

    A draw from a class of signature sigma moves the alive mask s to
    s & sigma. The law is {m: c} with P(n > k) the sum of c * (m / |G|)^k,
    by P. Hall's Moebius inversion (1936): a mask s that stays for m_s
    elements takes c_s[m] = (sum of w * c_t[m] over its moves, w elements
    to t != s) / (m - m_s) and c_s[m_s] = 1 minus the rest. Moves go to
    submasks, so a depth-first walk's post-order is topological: it keeps
    the moves along its path and one law index a mask, and sorts nothing.
    A mask merges its moves from those of the mask that pushed it, as
    t & (s & sigma) = t & sigma, and equal laws are kept once, keyed by
    their set of terms, so moves are summed per law. A mask below s that
    stays as long as s, or a remainder, cannot occur on a reached chain
    and raises ``InvariantError``.
    """
    laws, index, law_of = [], {}, {}  # distinct laws, law -> its place, mask -> place

    def push(s, moves):
        out = {}
        for sig, w in moves:
            out[s & sig] = out.get(s & sig, 0) + w
        path.append((s, out, iter(out)))

    path = []
    push(functools.reduce(operator.or_, sigs, 0), zip(sigs, sizes))
    while path:
        s, out, todo = path[-1]
        for t in todo:
            if t != s and t not in law_of:
                push(t, out.items())
                break
        else:  # every move of s has its law
            path.pop()
            stay, by_law, acc = out.get(s, 0), {}, {}
            for t, w in out.items():
                if t != s:
                    i = law_of[t]
                    by_law[i] = by_law.get(i, 0) + w
            for i, w in by_law.items():
                for m, c in laws[i]:
                    acc[m] = acc.get(m, 0) + w * c
            if stay in acc:
                raise InvariantError(f"the alive mask {s:#x} stays as long as a mask below it")
            law = {}
            for m, a in acc.items():
                law[m], r = divmod(a, m - stay)
                if r:
                    raise InvariantError(f"a coefficient of the alive mask {s:#x} is fractional")
            law[stay] = (1 if s else 0) - sum(law.values())  # the empty mask has no terms
            key = frozenset([(m, c) for m, c in law.items() if c])
            i = law_of[s] = index.setdefault(key, len(laws))
            if i == len(laws):
                laws.append(key)
    return dict(key), len(law_of)  # the start is the last mask to take its law


def _mean_wait(order: int, law: dict[int, int]) -> Fraction:
    """E[n] = sum of c * |G| / (|G| - m); a term that stays for every draw
    (a union covering G) has no finite sum and raises ``InvariantError``."""
    if order in law:
        raise InvariantError("an alive mask no draw leaves: a union covers G")
    den = math.lcm(*[order - m for m in law])
    return Fraction(sum([c * order * (den // (order - m)) for m, c in law.items()]), den)


def chebotarev_exact(S: SieveSystem, *, max_sieves: int = DEFAULT_SIEVE_CAP) -> ChebValue:
    """Exact C(G) from the sieve system (alive-mask chain, sieves capped)."""
    r = S.sieve_count
    if r > max_sieves:
        raise TooManySievesError(
            f"{r} reduced sieves exceed the cap of {max_sieves}; fall back to Monte Carlo"
        )
    law, states = S._law
    return ChebValue(_mean_wait(S.order, law), r, states)


def invariable_gen_prob(S: SieveSystem, k: int) -> Fraction:
    """P_I(G, k) = P(n <= k), read off the kept law: every k costs one walk.

    No sieve cap applies: ``elementary 2 8``, with 255 reduced sieves
    above ``DEFAULT_SIEVE_CAP``, walks 417 199 masks (8 s, 2-core Xeon).
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValueError("k must be a nonnegative integer")
    law, _ = S._law
    return 1 - Fraction(sum(map(lambda m, c: c * m**k, law, law.values())), S.order**k)


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

    This is the expected wait on the sieve system of the selected classes'
    masks, reduced as ``build_sieves`` reduces: dropping a contained union
    never changes whether the alive mask is empty. Returns 0 for an empty
    selection; a bit past the last maximal class raises ``ValueError``.
    The subfamily is walked with no sieve cap, as in ``invariable_gen_prob``.
    """
    classes = maximal_classes(G)
    if omega_mask >> len(classes):
        raise ValueError("the mask selects a class beyond the maximal classes of G")
    selected = tuple(mc.class_mask for i, mc in enumerate(classes) if omega_mask >> i & 1)
    return _mean_wait(G.order, _sieve_system(G, selected)._law[0])


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
