import signal
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from chebotarev import mc
from chebotarev.errors import InvariantError, TooManySievesError, TrialCapError
from chebotarev.exact import (
    SieveSystem,
    build_sieves,
    chebotarev_exact,
    elementary_abelian_cheb,
)
from chebotarev.mc import MAX_TRIALS, mc_estimate

from oracles import lemire_draws, mc_waits_by_trial, shuffled_sieves


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


def test_mc_where_the_exact_engine_refuses(group_of):
    # elementary 3 6 has 364 reduced sieves, six 64-bit mask words, past the
    # sieve cap: Monte Carlo stands in there and must meet the closed form
    S = build_sieves(group_of("elementary 3 6"))
    assert S.sieve_count == 364
    with pytest.raises(TooManySievesError):
        chebotarev_exact(S)
    rep = mc_estimate(S, 50_000, 13)
    assert rep.within_sigmas(float(elementary_abelian_cheb(3, 6)), 4.0)


def test_no_sieves_waits_zero():
    # order 1 leaves no sieve: every trial ends before any draw, which is
    # the exact chain's value for r = 0
    S = _coupon_system(1)
    assert S.sieve_count == 0 and chebotarev_exact(S).exact == 0
    rep = mc_estimate(S, 10, 3)
    assert (rep.trials, rep.mean, rep.variance, rep.ci95) == (10, 0.0, 0.0, (0.0, 0.0))
    assert rep.max_waiting_time == 0


def test_bad_seed_refused_without_draws():
    # numpy refuses a negative seed when the PCG64 is built, before any
    # draw, so a run of the trivial group, which draws nothing, refuses it
    # too and no report carries a seed outside the schema
    with pytest.raises(ValueError):
        mc_estimate(_coupon_system(1), 10, -1)


_SYSTEMS = [
    pytest.param(lambda group_of: build_sieves(group_of("alternating 4")), id="A4"),
    pytest.param(lambda group_of: build_sieves(group_of("elementary 2 5")), id="E32"),
    pytest.param(lambda group_of: _coupon_system(66), id="coupon66"),
    # each mask-word dtype boundary: 8|9, 16|17, 32|33 sieves, and a full word
    *(
        pytest.param(lambda group_of, n=k + 1: _coupon_system(n), id=f"coupon{k + 1}")
        for k in (8, 9, 16, 17, 32, 33, 64)
    ),
]


def _assert_matches_oracle(S, trials, seed):
    # the report is a function of the per-trial waits of stream version 2
    waits = mc_waits_by_trial(S, trials, seed)
    rep = mc_estimate(S, trials, seed)
    total = sum(waits)
    total_sq = sum(w * w for w in waits)
    assert rep.stream_version == 2
    assert rep.mean == total / trials
    assert rep.variance == (total_sq - total * total / trials) / (trials - 1)
    assert rep.max_waiting_time == max(waits)


@pytest.mark.parametrize("system", _SYSTEMS)
def test_stream_matches_per_trial_oracle(system, group_of):
    _assert_matches_oracle(system(group_of), 300, 17)


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("system", _SYSTEMS)
def test_stream_across_block_boundaries(system, block, group_of, monkeypatch):
    # the stream is read in blocks that ignore step boundaries: with blocks
    # this small every step of 300 trials spans several of them, starts and
    # ends inside one, and the draws must still be the oracle's one draw per
    # alive trial per step
    monkeypatch.setattr(mc, "_BLOCK", block)
    _assert_matches_oracle(system(group_of), 300, 17)


def test_stream_at_full_block_size(group_of):
    # step 1 reads two whole blocks and 3 values of a third, so step 2
    # starts inside a block; one uint8 word
    _assert_matches_oracle(build_sieves(group_of("symmetric 3")), 2 * mc._BLOCK + 3, 23)


def _stream(order, seed, n, size):
    # the first n values of mc's block stream, copied out of its one buffer
    parts, blocks = [], mc._blocks(order, np.random.PCG64(seed), size)
    while n > 0:
        parts.append(next(blocks)[:n].copy())
        n -= len(parts[-1])
    return np.concatenate(parts)


@pytest.mark.parametrize("size", [7, mc._BLOCK])
@pytest.mark.parametrize(
    "order",
    [
        # 2^32 mod order is 0, so no value is rejected
        2, 4, 32, 2**31, 2**32,
        # small thresholds, rejections below 5e-6 a draw
        3, 6, 12, 20_000,
        # heavy rejection (about 50 % and 25 % of the draws), and the top
        # order with a threshold (1)
        2**31 + 1, 3 * 2**30, 2**32 - 1,
    ],
)
def test_blocks_equal_numpy_integers(order, size):
    # numpy reads 32-bit halves of one buffered stream across calls, so
    # calls of uneven sizes, odd ones among them, give one sequence; the
    # blocks must give that sequence, rejections included
    sizes = (1, 2, 333, 5000)
    for seed in (0, 17, 2**63 + 5, 2**64 - 1):
        rng = np.random.Generator(np.random.PCG64(seed))
        want = np.concatenate([rng.integers(0, order, size=k) for k in sizes])
        got = _stream(order, seed, sum(sizes), size)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


class _ChosenWords:
    # stands in for PCG64: random_raw hands out the given 64-bit words
    def __init__(self, words):
        self._words = words

    def random_raw(self, k):
        assert k == len(self._words)
        return np.array(self._words, np.uint64)


@pytest.mark.parametrize("order", [3, 19_999, 2**31 + 1, 2**32 - 1])
def test_blocks_reject_at_the_threshold_edge(order):
    # candidates whose low 32 bits of x * order land on 2^32 mod order - 1
    # (dropped) and on 2^32 mod order (kept) come once in 2^32 draws, so no
    # seeded stream reaches them; they are solved for here (order is odd,
    # so it is invertible mod 2^32) and read through stand-in raw words
    threshold = (1 << 32) % order
    inverse = pow(order, -1, 1 << 32)
    edge = [(low * inverse) % (1 << 32) for low in (threshold - 1, threshold)]
    candidates = [*edge, 0, 1, 2**32 - 1, *edge[::-1], 12345]
    words = [lo | hi << 32 for lo, hi in zip(candidates[::2], candidates[1::2])]
    block = next(mc._blocks(order, _ChosenWords(words), len(candidates)))
    assert block.tolist() == lemire_draws(candidates, order)
    # both copies of the lower edge go, and so does x = 0, whose low bits 0
    # lie below every nonzero threshold
    assert len(block) == len(candidates) - 3


@pytest.mark.parametrize("order", [1, 2**32 + 1, 2**40])
def test_blocks_refuse_orders_outside_the_stream(order):
    # numpy draws nothing at order 1 and reduces 64-bit words above 2^32,
    # so the blocks would be another stream there
    with pytest.raises(InvariantError):
        next(mc._blocks(order, np.random.PCG64(0), mc._BLOCK))


def test_traced_peak_per_trial(group_of):
    # each slice compacts into the front of the masks, so the arrays that
    # grow with the trial count are the masks alone: at 200 000 trials about
    # 2.7 bytes a trial with one uint8 word and 18 with two uint64 words,
    # where a step-wide keep mask and compaction index peaked at 9 and 29.
    # numpy reports its buffers to tracemalloc, so this involves no timing.
    trials = 200_000
    for spec, bound in (("symmetric 3", 4), ("elementary 3 5", 20)):
        S = build_sieves(group_of(spec))
        mc_estimate(S, 1, 0)  # numpy is imported before tracing starts
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mc_estimate(S, trials, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / trials < bound, spec


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
