"""Seeded Monte Carlo estimation of the expected invariable-generation
waiting time.

Each trial keeps the mask of still-alive sieves (the reduced unions
containing every element drawn so far) and ANDs in the signature of each
new uniform element; the trial's waiting time is the draw count at which
the mask empties. All trials advance together, one draw per step, and a
trial drops out at the step its mask empties. Masks of any width are held
as one word per 64 sieves, each word in the narrowest unsigned dtype that
holds its sieves (``uint8`` up to 8, then ``uint16``, ``uint32``,
``uint64``), so a step touches as few bytes as the family allows.

A step runs over the alive trials in slices of at most one block of
draws: per slice it ANDs the drawn elements' words into that slice of the
masks in place, then moves the slice's surviving trials, in order, to the
live front of the masks, with an order-preserving ``compress`` when some
trial died and a plain copy when none did. The survivors of a step's
earlier slices fill no more than those slices did, so the front never
overtakes the slice being read, and after the step the front is exactly
the alive trials in trial order. A slice ends where the step or the
current block of draws ends, so a block may serve the end of one step and
the start of the next. The blocks keep a step's temporaries (the int64
draws, the gathered words and the compaction's index) at a fixed size that
malloc serves from its heap, where whole-step temporaries were large
enough to be mapped and zero-filled afresh on every step. The masks are
allocated once, at the trial count, and are the only arrays that grow
with it.

The PRNG is numpy's PCG64, seeded explicitly, and the draws are the values
of ``Generator(PCG64(seed)).integers(0, order)``: step 1 takes ``trials``
of them, every later step one per trial still alive, in trial order. That
layout is stream version 2 (version 1 drew a trials x 32 block first).
``_blocks`` derives the values from PCG64's raw 64-bit words as numpy does
for 2 <= order <= 2^32, by Lemire's method ("Fast Random Integer
Generation in an Interval", ACM TOMACS 29, 2019). numpy's 32-bit outputs
are the low half of each word, then its high half. An output x gives
m = x * order in 64 bits and the value m >> 32, unless the low 32 bits of
m fall below 2^32 mod order; then x is dropped. numpy keeps an unread high
half for its next call, so its values form one sequence however the calls
split it, and whole-array operations on the raw words give that sequence
in the same order. A run draws fewer than one block of values that it
does not use. Identical (group, trials, seed) inputs give bit-identical
reports within one stream version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .errors import InvariantError, TrialCapError
from .exact import SieveSystem

STREAM_VERSION = 2

_WORD = 64

# The most trials one run makes, 100 times the CLI default. A trial holds
# its mask words for the whole run; everything else is at most a block
# long (the draws' buffer is 128 KiB). Peaks measured at 10^6 trials come
# to about 1.3 bytes a trial with one uint8 word, 4.3 with one uint32 word
# and 17 with two uint64 words, so a run at the cap adds about 10-160 MB to
# the process.
MAX_TRIALS = 10**7

# Draws per block of a run of at least _BLOCK trials: the candidates of
# _BLOCK / 2 raw words (rounded up), less the rejections, below
# order / 2^32 (5e-6 under the order cap) of the candidates. One block's
# int64 draws take 128 KiB, glibc malloc's default mmap threshold, and a
# step's slices are at most a block long, so malloc serves a step's
# temporaries from its heap; whole-step temporaries of 10^5 trials were
# mapped and zero-filled afresh on every step. One in-process pass over
# the benchmark's mc ops takes about 235 minor page faults, against
# 21 300 with whole-step draws and 3 800-5 500 with a whole-step keep
# mask and compaction. Blocks of 2^13 were slower, with numpy's bounded
# draws and again with raw-word draws; 2^15 and 2^16 were no faster
# beyond the noise of alternating runs, and 2^15 faults more (2 100-2 400
# a pass).
_BLOCK = 1 << 14


def _blocks(order: int, bits, size: int):
    """Yield the stream of ``Generator(bits).integers(0, order)``, for a
    fresh ``PCG64`` ``bits``, as int64 blocks, each the accepted values of
    ``size`` candidates rounded up to whole 64-bit words.

    Each block is a view of one buffer, which the next block overwrites.
    The first block raises ``InvariantError`` unless 2 <= order <= 2^32,
    the range in which numpy draws these values: at order 1 it draws
    nothing, and above 2^32 it reduces whole 64-bit words.
    """
    if not 2 <= order <= 1 << 32:
        raise InvariantError(f"order {order} lies outside 2..2^32, where the draws follow numpy's")
    import numpy as np

    threshold = (1 << 32) % order
    words = (size + 1) // 2
    buf = np.empty(2 * words, np.uint64)
    while True:
        # numpy's next_uint32 reads the low half of a word, then the high
        # half, which "<u4" lists in that order on any host. dtype= fixes
        # the 64-bit loop: left to promotion, numpy 1.x would multiply in
        # uint32 and wrap. No temporary stays bound while the generator waits.
        m = np.multiply(
            bits.random_raw(words).astype("<u8", copy=False).view("<u4"),
            order,
            out=buf,
            dtype=np.uint64,
        )
        # under the order cap most blocks reject nothing, and the min()
        # test spares them the compress (filtering every block ran 5 %
        # slower on the benchmark's mc wall_s, BENCH_38.json)
        if threshold:
            low = m.astype(np.uint32)
            if low.min() < threshold:
                m = m[low >= threshold]
        yield np.right_shift(m, 32, out=m).view(np.int64)


@dataclass(frozen=True)
class McReport:
    """Summary of one seeded waiting-time estimation run."""

    trials: int
    mean: float
    variance: float
    ci95: tuple[float, float]
    seed: int
    max_waiting_time: int
    stream_version: int = STREAM_VERSION

    def within_sigmas(self, exact: float, sigmas: float = 4.0) -> bool:
        if self.trials < 2:
            return True
        half = sigmas * math.sqrt(self.variance / self.trials)
        return abs(self.mean - exact) <= half


def mc_estimate(S: SieveSystem, trials: int, seed: int) -> McReport:
    """Mean waiting time over seeded trials, with a normal-theory 95% CI.

    Raises ``TrialCapError`` before any array exists if ``trials``
    exceeds ``MAX_TRIALS``, or if some union is all of G (the AND of
    every class signature is nonzero), since then no trial can end. The
    trivial group has no sieves, so every trial ends at once: no draw is
    made and the wait is 0, the C = 0 that the exact chain gives too.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise TrialCapError(f"{trials} trials exceed the cap of {MAX_TRIALS}")
    if reduce(and_, S.class_signatures):
        raise TrialCapError(
            "some union contains every element class, so no trial can end;"
            " the sieve system is broken"
        )
    import numpy as np  # here, so that only Monte Carlo pays numpy's import

    class_of = np.array(S.class_of, dtype=np.intp)
    tables = []
    for shift in range(0, S.sieve_count, _WORD):
        full = (1 << min(_WORD, S.sieve_count - shift)) - 1
        word = [(sig >> shift) & full for sig in S.class_signatures]
        tables.append(np.array(word, dtype=np.min_scalar_type(full))[class_of])
    # built before any draw, so that numpy refuses a bad seed even when the
    # trivial group draws nothing
    bits = np.random.PCG64(seed)
    # no step draws more than ``trials`` values, so a run of fewer trials
    # than _BLOCK reads blocks of its own size
    blocks = _blocks(S.order, bits, min(_BLOCK, trials))
    block, used = (), 0

    # Trials are exchangeable, so only the alive count per step matters:
    # a trial that takes step s adds 1 to its wait and 2s - 1 to its square.
    total = total_sq = 0
    step = 0
    alive = trials if tables else 0
    masks = [np.full(trials, np.iinfo(t.dtype).max, t.dtype) for t in tables]
    while alive:
        step += 1
        total += alive
        total_sq += (2 * step - 1) * alive
        lo = kept = 0
        while lo < alive:
            # a slice ends where the step or the current block ends
            if used == len(block):
                block, used = next(blocks), 0
            idx = block[used : used + alive - lo]
            used += len(idx)
            hi = lo + len(idx)
            for m, t in zip(masks, tables):
                m[lo:hi] &= t.take(idx)
            # compress reads a bool condition about 2.5 times as fast as words
            keep = reduce(np.bitwise_or, (m[lo:hi] for m in masks)).astype(bool)
            # a Python int, so that total, mean and variance stay Python numbers
            n = int(np.count_nonzero(keep))
            # the slice's survivors move, in order, to the live front; kept <= lo
            if n < hi - lo:
                for m in masks:
                    m[kept : kept + n] = m[lo:hi].compress(keep)
            elif kept < lo:
                for m in masks:
                    m[kept : kept + n] = m[lo:hi]
            kept += n
            lo = hi
        alive = kept

    n = trials
    mean = total / n
    variance = (total_sq - total * total / n) / (n - 1) if n > 1 else 0.0
    half = 1.96 * math.sqrt(variance / n) if n > 1 else 0.0
    return McReport(
        trials=n,
        mean=mean,
        variance=variance,
        ci95=(mean - half, mean + half),
        seed=seed,
        max_waiting_time=step,
    )
