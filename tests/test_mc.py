import signal
from fractions import Fraction

import pytest

from chebotarev.errors import TrialCapError
from chebotarev.exact import SieveSystem, build_sieves, chebotarev_exact
from chebotarev.mc import MAX_TRIALS, mc_estimate

from oracles import mc_waits_by_trial, shuffled_sieves


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
    # refused before any array is allocated, so the count costs nothing
    for trials in (MAX_TRIALS + 1, 10**12):
        with pytest.raises(TrialCapError):
            mc_estimate(S, trials, 0)


@pytest.mark.parametrize("spec", ["elementary 2 5", "elementary 3 5"])
def test_reports_do_not_depend_on_sieve_order(spec, group_of):
    # 31 sieves fill one mask word and 121 two; permuting the sieve bits
    # leaves the step at which each trial's mask empties, so the report
    S = build_sieves(group_of(spec))
    shuffled = shuffled_sieves(S, 3)
    assert shuffled.class_signatures != S.class_signatures
    assert mc_estimate(shuffled, 20_000, 5) == mc_estimate(S, 20_000, 5)


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
    # A_4 has the heaviest single union (3/4), so a few trials stay alive
    # for dozens of steps after most have dropped out; the estimate must
    # still agree with the exact value
    G = group_of("alternating 4")
    S = build_sieves(G)
    exact = float(chebotarev_exact(S).exact)
    rep = mc_estimate(S, 50_000, 11)
    assert rep.max_waiting_time > 32  # the long tail is simulated
    assert rep.within_sigmas(exact, 4.0)


def test_seed_sweep_agreement(group_of):
    S = build_sieves(group_of("elementary 2 2"))
    exact = 10 / 3
    hits = sum(
        mc_estimate(S, 20_000, seed).within_sigmas(exact, 4.0) for seed in range(20)
    )
    assert hits >= 19


def _time_out(signum, frame):
    raise TimeoutError("mc_estimate ran on instead of refusing the family")


def test_trial_cap_guards_broken_sieves():
    # a union equal to the whole group can never be escaped, so no trial
    # can end; mc_estimate must refuse the family before any draw, because
    # the AND of all class signatures is nonzero (such unions violate the
    # build_sieves invariants, so this system is constructed by hand).
    # The alarm turns a missing check into a failure, not an endless loop.
    broken = SieveSystem(
        order=2,
        class_sizes=(1, 1),
        class_of=(0, 1),
        raw_unions=(0b11,),
        sieve_count=1,
        class_signatures=(1, 1),
    )
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        with pytest.raises(TrialCapError):
            mc_estimate(broken, 10, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _coupon_system(n: int) -> SieveSystem:
    # order n, one union per non-identity point, missing just that point:
    # the mask empties once every non-identity point has been drawn
    unions = tuple(((1 << n) - 1) ^ (1 << (j + 1)) for j in range(n - 1))
    sigs = tuple(
        sum(1 << j for j, u in enumerate(unions) if (u >> c) & 1) for c in range(n)
    )
    return SieveSystem(
        order=n,
        class_sizes=(1,) * n,
        class_of=tuple(range(n)),
        raw_unions=unions,
        sieve_count=len(unions),
        class_signatures=sigs,
    )


@pytest.mark.parametrize("n", [65, 66])
def test_coupon_collector_any_width(n):
    # 64 sieves fill one uint64 word exactly, 65 need a second word
    S = _coupon_system(n)
    assert S.sieve_count == n - 1
    rep = mc_estimate(S, 10_000, 5)
    exact = n * sum(1 / k for k in range(1, n))  # n * H_{n-1}
    assert rep.within_sigmas(exact, 4.0)


def test_no_sieves_waits_zero():
    # order 1 leaves no sieve: every trial ends before any draw, which is
    # the exact chain's value for r = 0
    S = _coupon_system(1)
    assert S.sieve_count == 0 and chebotarev_exact(S).exact == 0
    rep = mc_estimate(S, 10, 3)
    assert (rep.trials, rep.mean, rep.variance, rep.ci95) == (10, 0.0, 0.0, (0.0, 0.0))
    assert rep.max_waiting_time == 0


@pytest.mark.parametrize(
    "system",
    [
        pytest.param(lambda group_of: build_sieves(group_of("alternating 4")), id="A4"),
        pytest.param(lambda group_of: build_sieves(group_of("elementary 2 5")), id="E32"),
        pytest.param(lambda group_of: _coupon_system(66), id="coupon66"),
        # each mask-word dtype boundary: 8|9, 16|17, 32|33 sieves, and a full word
        *(
            pytest.param(lambda group_of, n=k + 1: _coupon_system(n), id=f"coupon{k + 1}")
            for k in (8, 9, 16, 17, 32, 33, 64)
        ),
    ],
)
def test_stream_matches_per_trial_oracle(system, group_of):
    # the report is a function of the per-trial waits of stream version 2
    S = system(group_of)
    trials = 300
    waits = mc_waits_by_trial(S, trials, 17)
    rep = mc_estimate(S, trials, 17)
    total = sum(waits)
    total_sq = sum(w * w for w in waits)
    assert rep.stream_version == 2
    assert rep.mean == total / trials
    assert rep.variance == (total_sq - total * total / trials) / (trials - 1)
    assert rep.max_waiting_time == max(waits)


# (spec, seed, mean, variance, max_waiting_time) of mc_estimate(S, 100_000,
# seed) for each benchmark Monte Carlo group, captured from stream version 2
_GOLDEN = [
    ("elementary 2 2", 2101, 3.33315, 2.4525456029560293, 19),
    ("symmetric 3", 5, 3.78754, 4.857049318893188, 33),
    ("cyclic 6", 17, 2.30473, 2.039630023400234, 20),
    ("dihedral 4", 33, 3.33705, 2.4627319248192476, 21),
    ("alternating 4", 71, 4.39821, 10.284321639116392, 45),
    ("elementary 2 5", 1009, 6.57758, 2.7291686352863485, 24),
]


@pytest.mark.parametrize(
    "spec,seed,mean,variance,max_wait", _GOLDEN, ids=[g[0] for g in _GOLDEN]
)
def test_golden_reports(spec, seed, mean, variance, max_wait, group_of):
    rep = mc_estimate(build_sieves(group_of(spec)), 100_000, seed)
    assert (rep.mean, rep.variance, rep.max_waiting_time) == (mean, variance, max_wait)
    # Python scalars, not numpy ones: the report is JSON- and repr-stable
    assert type(rep.mean) is float
    assert type(rep.variance) is float
    assert type(rep.max_waiting_time) is int
