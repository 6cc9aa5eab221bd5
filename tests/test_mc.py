from fractions import Fraction

import pytest

from chebotarev.errors import TooManySievesError, TrialCapError
from chebotarev.exact import SieveSystem, build_sieves, chebotarev_exact
from chebotarev.mc import mc_estimate


def test_reproducibility(group_of):
    S = build_sieves(group_of("symmetric 3"))
    a = mc_estimate(S, 20_000, 42)
    b = mc_estimate(S, 20_000, 42)
    assert a == b
    c = mc_estimate(S, 20_000, 43)
    assert c != a


def test_report_shape(group_of):
    S = build_sieves(group_of("cyclic 6"))
    rep = mc_estimate(S, 5000, 1)
    assert rep.trials == 5000 and rep.seed == 1
    assert rep.ci95[0] <= rep.mean <= rep.ci95[1]
    assert rep.variance >= 0
    assert rep.max_waiting_time >= 1


def test_single_trial(group_of):
    S = build_sieves(group_of("cyclic 2"))
    rep = mc_estimate(S, 1, 0)
    assert rep.trials == 1 and rep.variance == 0.0
    assert rep.mean == rep.max_waiting_time >= 1


def test_trials_validation(group_of):
    S = build_sieves(group_of("cyclic 2"))
    with pytest.raises(ValueError):
        mc_estimate(S, 0, 0)


@pytest.mark.parametrize(
    "spec,exact",
    [
        ("cyclic 2", Fraction(2)),
        ("elementary 2 2", Fraction(10, 3)),
        ("symmetric 3", Fraction(19, 5)),
    ],
)
def test_means_near_exact(spec, exact, group_of):
    S = build_sieves(group_of(spec))
    rep = mc_estimate(S, 100_000, 7)
    assert abs(rep.mean - float(exact)) < 0.05
    assert rep.within_sigmas(float(exact), 4.0)


def test_long_tail_group(group_of):
    # A_4 has the heaviest single union (3/4); straggler trials past the
    # vectorised block must be handled and agree with the exact value
    G = group_of("alternating 4")
    S = build_sieves(G)
    exact = float(chebotarev_exact(S).exact)
    rep = mc_estimate(S, 50_000, 11)
    assert rep.max_waiting_time > 32  # exercises the straggler path
    assert rep.within_sigmas(exact, 4.0)


def test_seed_sweep_agreement(group_of):
    S = build_sieves(group_of("elementary 2 2"))
    exact = 10 / 3
    hits = sum(
        mc_estimate(S, 20_000, seed).within_sigmas(exact, 4.0) for seed in range(20)
    )
    assert hits >= 19


def test_trial_cap_guards_broken_sieves():
    # a union equal to the whole group can never be escaped; the hard cap
    # must fire instead of looping forever (such unions violate the
    # build_sieves invariants, so this system is constructed by hand)
    broken = SieveSystem(
        order=2,
        class_sizes=(1, 1),
        class_of=(0, 1),
        raw_unions=(0b11,),
        raw_signatures=(1, 1),
        reduced_unions=(0b11,),
        class_signatures=(1, 1),
    )
    with pytest.raises(TrialCapError):
        mc_estimate(broken, 10, 0)


def test_mask_width_refusal():
    # 64 unions, each missing one point, need a 64-bit signature for the
    # identity; the int64 table must refuse with a typed error
    n = 65
    unions = tuple(((1 << n) - 1) ^ (1 << (j + 1)) for j in range(64))
    sigs = tuple(
        sum(1 << j for j, u in enumerate(unions) if (u >> c) & 1) for c in range(n)
    )
    wide = SieveSystem(
        order=n,
        class_sizes=(1,) * n,
        class_of=tuple(range(n)),
        raw_unions=unions,
        raw_signatures=sigs,
        reduced_unions=unions,
        class_signatures=sigs,
    )
    with pytest.raises(TooManySievesError, match="63"):
        mc_estimate(wide, 10, 0)
