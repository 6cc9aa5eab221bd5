"""Exact Chebotarev invariants from the alive-mask chain.

A tuple of elements fails to invariably generate G exactly when it lies
inside the conjugate-union of some maximal subgroup. After k draws, the
unions still containing every drawn element form the AND of the drawn
classes' signatures: the alive mask. The waiting time C(G) is the
expected number of draws until that mask is empty, and P_I(G, k) the
probability that it is empty after k draws.

Alive masks only move to submasks, so taking the reachable masks in
increasing numeric order solves the expectation in one triangular pass
and propagates k-step weights forward. Each mask reads its moves off the
merged moves of the mask that first reached it, not off every class, and
the expectation is carried as reduced integer pairs, with one
``Fraction`` at the end. Everything is exact big-rational arithmetic;
decimal strings are rendering only.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from .errors import InvariantError, TooManySievesError, TrivialGroupError
from .groupspec import check_prime
from .perm import PermGroup, conjugacy_classes, per_group
from .subgroups import frattini, maximal_classes

# A guard on the chain engine, whose reachable masks can grow like 2^r.
# 156 is the family of elementary 5 4, the widest in the closed-form sweep
# of ``verify``; the chain solves it with 1120 states in about 0.03 s on a
# 2-core Xeon (0.075 s when every state read every class). Monte Carlo
# has no width limit, so it is the fallback above the cap.
DEFAULT_SIEVE_CAP = 156


def decimal_string(x: Fraction, digits: int = 20) -> str:
    """Round x to the given number of significant digits, as a string."""
    if x == 0:
        return "0"
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        d = decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)
        return str(d)


@dataclass(frozen=True)
class SieveSystem:
    """Conjugate-union sieves of a nontrivial group, plus class data.

    ``raw_unions`` holds one union bitset per maximal class (aligned with
    the maximal class list); the ``reduced_*`` fields describe the full
    family after deduplication and containment reduction. Signatures map
    each element-conjugacy-class to the mask of reduced unions containing
    it; they are class-constant because unions are conjugation invariant.
    """

    order: int
    class_sizes: tuple[int, ...]
    class_of: tuple[int, ...]
    raw_unions: tuple[int, ...]
    raw_signatures: tuple[int, ...]
    reduced_unions: tuple[int, ...]
    class_signatures: tuple[int, ...]

    @property
    def sieve_count(self) -> int:
        return len(self.reduced_unions)


@dataclass(frozen=True)
class ChebValue:
    """Exact value of C(G) with the size of the computation behind it.

    ``state_count`` is the number of alive masks the chain reached,
    including the empty (absorbing) one.
    """

    exact: Fraction
    sieve_count: int
    state_count: int


@per_group
def build_sieves(G: PermGroup) -> SieveSystem:
    """Conjugate-union sieve system of G (one raw union per maximal class).

    Each union is read once, as a binary string at the class
    representatives, and a family's signatures are the columns of its
    unions' strings read back as binary numbers: the raw family's and the
    reduced family's in the same way. Kept per group.
    """
    if G.order == 1:
        raise TrivialGroupError("the trivial group has no sieves")
    table = conjugacy_classes(G)
    raw = tuple(mc.union_bits for mc in maximal_classes(G))
    # bit x of a union is character order - 1 - x of its binary string
    at = itemgetter(*[G.order - 1 - rep for rep in table.reps])
    row = {u: at(f"{u:0{G.order}b}") for u in raw}

    def signatures(unions: Sequence[int]) -> tuple[int, ...]:
        # per class, the mask of the unions containing it (last union first)
        return tuple([int("".join(col), 2) for col in zip(*[row[u] for u in reversed(unions)])])

    # dropping a union contained in another never changes the union event
    reduced = tuple(
        sorted({u for u in raw if not any(v != u and u & ~v == 0 for v in raw)})
    )
    sigs = signatures(reduced)
    if G.full_bits in reduced:
        raise InvariantError("a conjugate-union covers G")
    if sigs[table.class_of[0]] != (1 << len(reduced)) - 1:
        raise InvariantError("the identity lies outside a conjugate-union")
    return SieveSystem(
        order=G.order,
        class_sizes=table.sizes,
        class_of=table.class_of,
        raw_unions=raw,
        raw_signatures=signatures(raw),
        reduced_unions=reduced,
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
    alive = {full: 1}
    for _ in range(k):
        step: dict[int, int] = {}
        for s, c in alive.items():
            for t, w in chain[s].items():
                if t:
                    step[t] = step.get(t, 0) + c * w
        alive = step
    return 1 - Fraction(sum(alive.values()), S.order**k)


def v_property_sum(S: SieveSystem, omega_mask: int) -> Fraction:
    """Sum over k >= 0 of the probability that k elements all lie in some
    union from the selected subfamily (mask over raw maximal classes).

    This is the expected wait of the chain on the raw signatures masked
    to the subfamily; no reduction is needed, since dropping a contained
    union never changes whether the alive mask is empty. Returns 0 for an
    empty selection; a bit past the raw classes raises ``ValueError``.
    """
    if omega_mask >> len(S.raw_unions):
        raise ValueError("the mask selects a class beyond the raw maximal classes")
    if omega_mask == 0:
        return Fraction(0)
    chain = _alive_chain(S.class_sizes, S.raw_signatures, omega_mask)
    return _expected_wait(S.order, chain)


def elementary_abelian_cheb(p: int, delta: int) -> Fraction:
    """Closed form sum over i < delta of p^delta / (p^delta - p^i)."""
    check_prime(p)
    if delta < 1:
        raise ValueError("delta must be >= 1")
    pd = p**delta
    return sum((Fraction(pd, pd - p**i) for i in range(delta)), Fraction(0))


def frattini_reduce(G: PermGroup) -> PermGroup:
    """The quotient of G by its Frattini subgroup (idempotent; preserves C)."""
    from .perm import quotient

    phi = frattini(G)
    Q, _ = quotient(G, phi)
    return Q


def chebotarev_of_group(
    G: PermGroup, *, max_sieves: int = DEFAULT_SIEVE_CAP
) -> ChebValue:
    """Convenience: build sieves and evaluate C(G); 0 for the trivial group."""
    if G.order == 1:
        # no sieves: the only alive mask is the empty one
        return ChebValue(exact=Fraction(0), sieve_count=0, state_count=1)
    return chebotarev_exact(build_sieves(G), max_sieves=max_sieves)
