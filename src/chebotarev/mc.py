"""Seeded Monte Carlo estimation of the expected invariable-generation
waiting time.

Each trial draws uniform element indices and intersects the running mask
of still-alive sieves (unions containing every sample so far) via the
per-element signature table; the trial's waiting time is the draw count
at which the mask empties. The PRNG is numpy's PCG64, seeded explicitly;
draws are consumed as one stream, row-major over a trials x block matrix
first and then sequentially for the few trials that outlast the block.
That layout is part of the reproducibility contract: identical
(group, trials, seed) inputs give bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TooManySievesError, TrialCapError
from .exact import SieveSystem

# Hard per-trial draw cap; hitting it means the sieve system is broken
# (every union is proper, so escape probability per draw is >= 1/|G|).
TRIAL_DRAW_CAP = 10**6

_BLOCK = 32

# Signatures are packed into np.int64, whose sign bit stays unused.
_MASK_BITS = 63


@dataclass(frozen=True)
class McReport:
    """Summary of one seeded waiting-time estimation run."""

    trials: int
    mean: float
    variance: float
    ci95: tuple[float, float]
    seed: int
    max_waiting_time: int

    def within_sigmas(self, exact: float, sigmas: float = 4.0) -> bool:
        if self.trials < 2:
            return True
        half = sigmas * math.sqrt(self.variance / self.trials)
        return abs(self.mean - exact) <= half


def mc_estimate(S: SieveSystem, trials: int, seed: int) -> McReport:
    """Mean waiting time over seeded trials, with a normal-theory 95% CI."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if S.sieve_count > _MASK_BITS:
        raise TooManySievesError(
            f"{S.sieve_count} reduced sieves exceed the {_MASK_BITS}-sieve width"
            " of the Monte Carlo signature masks"
        )
    sig_of_element = np.array(
        [S.class_signatures[S.class_of[e]] for e in range(S.order)], dtype=np.int64
    )
    rng = np.random.Generator(np.random.PCG64(seed))

    idx = rng.integers(0, S.order, size=(trials, _BLOCK))
    sigs = sig_of_element[idx]
    acc = np.bitwise_and.accumulate(sigs, axis=1)
    dead = acc == 0
    done = dead.any(axis=1)
    waits = np.where(done, dead.argmax(axis=1) + 1, 0).astype(np.int64)

    for row in np.flatnonzero(~done):
        alive = int(acc[row, -1])
        count = _BLOCK
        while alive:
            e = int(rng.integers(0, S.order))
            alive &= int(sig_of_element[e])
            count += 1
            if count > TRIAL_DRAW_CAP:
                raise TrialCapError(
                    f"trial exceeded {TRIAL_DRAW_CAP} draws; sieve system looks broken"
                )
        waits[row] = count

    total = int(waits.sum())
    total_sq = int((waits * waits).sum())
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
        max_waiting_time=int(waits.max()),
    )
