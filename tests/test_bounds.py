from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import SOLUBLE_SPECS, ratio_holds_by_decimal
from chebotarev.bounds import (
    SIGMA,
    Verdict,
    waiting_estimate,
    binomial_tail_check,
    build_bound_report,
    min_generator_bound,
    five_thirds_bound,
    five_thirds_check,
    waiting_ratio_check,
    crown_bound,
)
from chebotarev.crowns import chief_series, crown_data, factor_module
from chebotarev.errors import BadProbabilityError, InvariantError, UnclassifiedRatioError
from chebotarev.exact import chebotarev_of_group
from chebotarev.subgroups import min_generators


def test_sigma_constant():
    assert SIGMA == Fraction(2118456563, 10**9)
    assert 2 < SIGMA < Fraction(22, 10)


def test_crown_bound_examples(group_of):
    klein = group_of("elementary 2 2")
    cd = crown_data(klein)
    assert crown_bound(cd.A, cd.B) == 2 + SIGMA
    assert chebotarev_of_group(klein).exact <= 2 + SIGMA

    s3 = group_of("symmetric 3")
    cd3 = crown_data(s3)
    assert crown_bound(cd3.A, cd3.B) == 3 + 1 + SIGMA
    assert chebotarev_of_group(s3).exact <= 4 + SIGMA

    assert crown_bound((), ()) == SIGMA  # trivial group: empty families


def test_min_generator_bound_examples(group_of):
    s3 = group_of("symmetric 3")
    cd3 = crown_data(s3)
    assert min_generator_bound(cd3.A, 2) == 8 + SIGMA
    # empty non-central family degenerates to sigma alone
    klein = group_of("elementary 2 2")
    cdk = crown_data(klein)
    assert min_generator_bound(cdk.A, 2) == SIGMA


def test_unclassified_module_raises(group_of):
    # a bare factor module has no q, n, delta or theta until crown_data
    s3 = group_of("symmetric 3")
    series = chief_series(s3)
    V = factor_module(s3, series.subgroups[1], series.subgroups[2])
    assert V.q is None
    for check in (
        lambda: crown_bound([V], []),
        lambda: min_generator_bound([V], 1),
        lambda: waiting_estimate(V),
        lambda: waiting_ratio_check(V, s3.order),
    ):
        with pytest.raises(InvariantError):
            check()


def test_waiting_estimate_central(group_of):
    klein = group_of("elementary 2 2")
    V = crown_data(klein).B[0]
    res = waiting_estimate(V)
    assert res.branch_fix is None
    assert res.value == Fraction(4, 3) + Fraction(4, 2) == Fraction(10, 3)


def test_waiting_estimate_s3(group_of):
    V = crown_data(group_of("symmetric 3")).A[0]
    res = waiting_estimate(V)
    assert res.branch_fix == 3 and res.branch_identity == 3 and res.value == 3


def test_waiting_estimate_a4(group_of):
    V = crown_data(group_of("alternating 4")).A[0]
    res = waiting_estimate(V)
    assert res.branch_fix == 4 and res.branch_identity == 4 and res.value == 4


def test_waiting_estimate_min_of_branches(group_of):
    for spec in ["symmetric 4", "affine 5 1 [[2]]", "affine 2 2 [[0,1],[1,1]] power 2"]:
        for V in crown_data(group_of(spec)).A:
            res = waiting_estimate(V)
            assert res.value <= res.branch_identity
            if res.branch_fix is not None:
                assert res.value <= res.branch_fix
                assert res.value in (res.branch_fix, res.branch_identity)


def test_ratio_check_exceptional_case1(group_of):
    G = group_of("affine 2 2 [[0,1],[1,1]] power 2")
    V = crown_data(G).A[0]
    res = waiting_ratio_check(V, G.order)
    assert not res.passes and res.exceptional_case == 1
    assert res.lam == 1 and res.u_order == 16


def test_ratio_check_lambda4_passes(group_of):
    G = group_of("direct_product affine 3 1 [[2]] elementary 2 2")
    V = crown_data(G).A[0]
    res = waiting_ratio_check(V, G.order)
    assert res.passes and res.exceptional_case is None
    assert res.lam == 4


def test_ratio_check_delta3_passes(group_of):
    G = group_of("affine 3 1 [[2]] power 3")
    V = crown_data(G).A[0]
    assert V.delta == 3
    res = waiting_ratio_check(V, G.order)
    assert res.passes


@pytest.mark.parametrize("spec", SOLUBLE_SPECS)
def test_ratio_verdict_matches_decimal_oracle(spec, group_of):
    # the exact squared comparison gives the verdict of a 60-digit
    # evaluation of alpha / sqrt(|G|) < (5/3)(1 - 1/sqrt(|U|))
    G = group_of(spec)
    for V in crown_data(G).A:
        u_order = (V.q**V.n) ** V.delta
        expect = ratio_holds_by_decimal(waiting_estimate(V).value, G.order, u_order)
        assert waiting_ratio_check(V, G.order).passes == expect


def test_ratio_check_fails_far_above_the_bound(group_of):
    # S3's module given an acting group of order 120 and p_fix = 1/120, so
    # alpha = 180 and |G| = 360: R = 25ug - A^2 u - 25g is negative while
    # R^2 > 100 A^2 ug, so the sign of R decides, and |H| >= |V| fits no
    # exceptional shape
    V = crown_data(group_of("symmetric 3")).A[0]
    big = replace(V, acting_group=group_of("symmetric 5"), p_fix=Fraction(1, 120))
    assert waiting_estimate(big).value == 180
    assert not ratio_holds_by_decimal(Fraction(180), 360, 3)
    with pytest.raises(UnclassifiedRatioError):
        waiting_ratio_check(big, 360)


def test_ratio_check_rejects_central(group_of):
    V = crown_data(group_of("elementary 2 2")).B[0]
    with pytest.raises(ValueError):
        waiting_ratio_check(V, 4)


def test_binomial_tail_examples():
    partial, bound, ok = binomial_tail_check(0, Fraction(1, 2), 60)
    assert ok and bound == 2
    assert abs(partial - 2) <= Fraction(1, 10**9)

    partial, _, ok = binomial_tail_check(1, Fraction(1, 2), 50)
    assert ok and 2 - partial < Fraction(1, 10**9)

    partial, bound, ok = binomial_tail_check(3, Fraction(1, 3), 200)
    assert ok and bound == 3 and partial <= 3


def test_binomial_tail_validation():
    with pytest.raises(BadProbabilityError):
        binomial_tail_check(1, Fraction(0), 10)
    with pytest.raises(BadProbabilityError):
        binomial_tail_check(1, Fraction(3, 2), 10)
    with pytest.raises(ValueError):
        binomial_tail_check(5, Fraction(1, 2), 3)


@given(
    st.integers(0, 6),
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10)),
    st.integers(0, 40),
)
def test_binomial_tail_monotone_below_bound(l, p, extra):
    K = l + extra
    partial, bound, ok = binomial_tail_check(l, p, K)
    assert ok
    bigger, _, _ = binomial_tail_check(l, p, K + 5)
    assert partial <= bigger <= bound


def test_five_thirds_examples():
    assert five_thirds_check(Fraction(10, 3), 4, True) == Verdict.SATISFIED
    assert five_thirds_check(Fraction(10, 3), 4, False) == Verdict.VIOLATED
    assert five_thirds_check(Fraction(19, 5), 6, False) == Verdict.SATISFIED
    assert five_thirds_check(Fraction(2), 2, False) == Verdict.SATISFIED
    assert five_thirds_check(Fraction(4), 4, False) == Verdict.VIOLATED
    assert float(five_thirds_bound(6)) == pytest.approx(4.0824829, rel=1e-6)


def test_bound_report_soluble(group_of):
    G = group_of("symmetric 3")
    cd = crown_data(G)
    rb = build_bound_report(
        group_id="symmetric 3",
        order=G.order,
        soluble=True,
        is_klein=False,
        exact=chebotarev_of_group(G).exact,
        A=cd.A,
        B=cd.B,
        d=min_generators(G),
    )
    assert rb.verdicts["crown"] == Verdict.SATISFIED
    assert rb.verdicts["min_generators"] == Verdict.SATISFIED
    assert rb.verdicts["five_thirds"] == Verdict.SATISFIED
    assert not rb.degenerate_family
    assert not rb.any_violated()
    assert len(rb.per_factor) == 1


def test_bound_report_degenerate_family(group_of):
    G = group_of("elementary 2 2")
    cd = crown_data(G)
    rb = build_bound_report(
        group_id="elementary 2 2",
        order=4,
        soluble=True,
        is_klein=True,
        exact=Fraction(10, 3),
        A=cd.A,
        B=cd.B,
        d=2,
    )
    assert rb.degenerate_family  # compared against d(G) + sigma instead
    assert rb.verdicts["min_generators"] == Verdict.SATISFIED
    assert rb.verdicts["five_thirds"] == Verdict.SATISFIED


def test_bound_report_insoluble(group_of):
    G = group_of("alternating 5")
    rb = build_bound_report(
        group_id="alternating 5",
        order=60,
        soluble=False,
        is_klein=False,
        exact=None,
        A=(),
        B=(),
        d=2,
    )
    assert all(v == Verdict.NOT_APPLICABLE for v in rb.verdicts.values())
