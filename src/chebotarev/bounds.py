"""Evaluators and checkers for the effective waiting-time upper bounds.

Bound values are assembled in exact rational arithmetic (the sigma
constant is a fixed decimal literal, hence an exact rational), and every
verdict is an exact comparison of rationals: a comparison with square
roots is squared until none is left. Only the displayed (5/3) sqrt(|G|)
is a decimal, rounded up in integer arithmetic.
"""

from __future__ import annotations

import decimal
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .crowns import ChiefFactorModule
from .errors import BadProbabilityError, InvariantError, UnclassifiedRatioError
from .exact import elementary_abelian_cheb

#: Expected surplus of random draws (beyond d(G)) needed to generate a
#: group plainly, as a fixed 10-digit decimal literal treated as exact.
SIGMA = Fraction(2_118_456_563, 10**9)

_PREC = 38


class Verdict(str, enum.Enum):
    SATISFIED = "SATISFIED"
    VIOLATED = "VIOLATED"
    NOT_APPLICABLE = "NOT_APPLICABLE"


def five_thirds_bound(order: int) -> decimal.Decimal:
    """The least decimal of ``_PREC`` significant digits at or above (5/3) sqrt(order).

    It is c 10^-s, with s = ``_PREC`` less the digits of its integer part
    and c the least integer with 9 c^2 >= 25 order 100^s, in integers.
    """
    s = _PREC - len(str(math.isqrt(25 * order) // 3))
    a = 25 * order * 100 ** max(s, 0)
    r = math.isqrt(a)
    # ceil(ceil(sqrt(a)) / 3), over 10^-s too for an order past 10^75
    c = -(-(r + (r * r < a)) // (3 * 10 ** max(-s, 0)))
    with decimal.localcontext() as ctx:
        ctx.prec = _PREC
        return decimal.Decimal(c) / decimal.Decimal(10) ** s  # exact


def five_thirds_check(exact: Fraction, order: int, is_klein: bool) -> Verdict:
    """Strict comparison of exact C(G) against (5/3) sqrt(|G|) in squared form.

    Equality is allowed exactly for the Klein four-group.
    """
    lhs = 9 * exact * exact
    rhs = Fraction(25 * order)
    if lhs < rhs:
        return Verdict.SATISFIED
    if lhs == rhs and is_klein:
        return Verdict.SATISFIED
    return Verdict.VIOLATED


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _classified(V: ChiefFactorModule) -> tuple[int, int, int]:
    """(q, n, delta) of a module, which crown_data must have classified (m too)."""
    if V.q is None or V.n is None or V.delta is None or V.m is None:
        raise InvariantError(f"module {V.label!r} is not classified by crown_data")
    return V.q, V.n, V.delta


def crown_term(V: ChiefFactorModule) -> tuple[Fraction, Fraction, Fraction]:
    """(size branch, image branch, min) of the non-central class bound term.

    The one place these branches are computed: ``crown_bound`` sums the
    mins, ``waiting_estimate`` reads the image branch, and the CLI prints
    all three per class.
    """
    q, n, delta = _classified(V)
    qn = q**n
    dt = delta * V.theta
    c_v = Fraction(q, q - 1)
    by_size = (dt + c_v) * qn
    by_image = (_ceil_div(dt, n) + Fraction(qn, qn - 1)) * V.h_order
    return by_size, by_image, min(by_size, by_image)


def crown_bound(
    A: Sequence[ChiefFactorModule], B: Sequence[ChiefFactorModule]
) -> Fraction:
    """Crown bound: per non-central class the smaller of a module-size and
    an image-size estimate, plus the largest central multiplicity, plus sigma.
    """
    total = Fraction(0)
    for V in A:
        total += crown_term(V)[2]
    if B:
        total += max(V.delta for V in B)
    return total + SIGMA


def min_generator_bound(A: Sequence[ChiefFactorModule], d: int) -> Fraction:
    """d(G) * sum over non-central classes of (1 + q^n |H| / (q^n - 1)) + sigma."""
    total = Fraction(0)
    for V in A:
        q, n, _ = _classified(V)
        qn = q**n
        total += 1 + Fraction(qn * V.h_order, qn - 1)
    return d * total + SIGMA


def waiting_estimate(V: ChiefFactorModule) -> Fraction:
    """Waiting-time estimate for one crown class: the smaller of the
    fixed-vector branch and the image branch of ``crown_term`` (the
    central case uses the elementary-abelian expected-generation sum,
    with q = p)."""
    q, n, delta = _classified(V)
    if V.h_order == 1:
        return elementary_abelian_cheb(q, delta)
    # p_fix >= 1/|H|: the identity fixes every vector
    by_fix = (delta * V.theta + V.m + Fraction(q, q - 1)) / V.p_fix
    return min(by_fix, crown_term(V)[1])


@dataclass(frozen=True)
class RatioCheckResult:
    passes: bool
    exceptional_case: Optional[int]
    lam: int


def waiting_ratio_check(V: ChiefFactorModule, group_order: int) -> RatioCheckResult:
    """Compare alpha_U / sqrt(|G|) against (5/3)(sqrt(|U|)-1)/sqrt(|U|).

    Here |U| = |V|^delta and lambda = |G| / (|H| |U|) (an integer). When
    the strict inequality fails, the parameters must land in one of four
    known exceptional shapes (all with |H| < |V|), keyed by
    (delta, q^n, lambda); anything else raises. The verdict is exact: with
    A = 3 alpha, g = |G| and u = |U|, the inequality holds iff
    A sqrt(u) + 5 sqrt(g) < 5 sqrt(ug), and squaring both positive sides
    twice, iff R = 25ug - A^2 u - 25g > 0 and 100 A^2 ug < R^2.
    """
    q, n, delta = _classified(V)
    if V.h_order <= 1:
        raise ValueError("the ratio check applies to non-central classes only")
    qn = q**n
    u_order = qn**delta
    denom = V.h_order * u_order
    if group_order % denom:
        raise ValueError("group order is not a multiple of |H| * |V|^delta")
    lam = group_order // denom
    alpha = waiting_estimate(V)
    A2 = (3 * alpha) ** 2
    ug = u_order * group_order
    R = 25 * ug - A2 * u_order - 25 * group_order
    passes = R > 0 and 100 * A2 * ug < R * R
    case: Optional[int] = None
    if not passes:
        if V.h_order < qn:
            if V.delta == 2 and qn == 4 and lam == 1:
                case = 1
            elif V.delta == 2 and qn == 3 and lam <= 2:
                case = 2
            elif V.delta == 1 and 4 <= qn <= 7 and lam == 1:
                case = 3
            elif V.delta == 1 and qn == 3 and lam <= 3:
                case = 4
        if case is None:
            raise UnclassifiedRatioError(
                f"ratio check failed outside the known exceptional shapes: "
                f"delta={V.delta}, q^n={qn}, lambda={lam}, |H|={V.h_order}"
            )
    return RatioCheckResult(passes=passes, exceptional_case=case, lam=lam)


def binomial_tail_check(
    l: int, p: Fraction, K: int
) -> tuple[Fraction, Fraction, bool]:
    """Partial sum over k in [l, K] of P(B(k, p) = l), checked against 1/p.

    Exact rationals throughout; the full series converges to at most 1/p.
    """
    p = Fraction(p)
    if not 0 < p <= 1:
        raise BadProbabilityError(f"p must lie in (0, 1], got {p}")
    if l < 0:
        raise ValueError("l must be >= 0")
    if K < l:
        raise ValueError("K must be >= l")
    x = 1 - p
    partial = Fraction(0)
    for k in range(l, K + 1):
        partial += math.comb(k, l) * p**l * x ** (k - l)
    bound = 1 / p
    return partial, bound, partial <= bound


@dataclass(frozen=True)
class BoundReport:
    """Bound values and verdicts for one group.

    The inputs (order, C(G), d(G)) stay with the caller; renderings such
    as the decimal (5/3) sqrt(|G|) and the per-class terms are the CLI's.
    """

    crown_bound_value: Fraction
    min_generator_bound_value: Fraction
    degenerate_family: bool  # empty non-central family: compared against d(G) + sigma
    verdicts: dict

    def any_violated(self) -> bool:
        return any(v == Verdict.VIOLATED for v in self.verdicts.values())


def build_bound_report(
    *,
    order: int,
    soluble: bool,
    is_klein: bool,
    exact: Optional[Fraction],
    A: Sequence[ChiefFactorModule],
    B: Sequence[ChiefFactorModule],
    d: int,
) -> BoundReport:
    """Evaluate every bound for one group and compare against exact C(G).

    Each argument feeds a bound or a verdict. Insoluble groups get
    NOT_APPLICABLE verdicts (the bounds assume solubility). When the
    non-central family is empty the stated min-generator bound
    degenerates to sigma alone, which no nontrivial group can satisfy;
    the meaningful check in that regime is d(G) + sigma, which follows
    from the crown bound's central term, and the report flags that
    substitution.
    """
    crown_b = crown_bound(A, B)
    min_gen_b = min_generator_bound(A, d)
    degenerate_family = len(A) == 0
    min_gen_effective = (d + SIGMA) if degenerate_family else min_gen_b
    if not soluble or exact is None:
        verdicts = {
            "crown": Verdict.NOT_APPLICABLE,
            "min_generators": Verdict.NOT_APPLICABLE,
            "five_thirds": Verdict.NOT_APPLICABLE,
        }
    else:
        verdicts = {
            "crown": Verdict.SATISFIED if exact <= crown_b else Verdict.VIOLATED,
            "min_generators": (
                Verdict.SATISFIED if exact <= min_gen_effective else Verdict.VIOLATED
            ),
            "five_thirds": five_thirds_check(exact, order, is_klein),
        }
    return BoundReport(
        crown_bound_value=crown_b,
        min_generator_bound_value=min_gen_b,
        degenerate_family=degenerate_family,
        verdicts=verdicts,
    )
