"""Seeded Monte Carlo estimation of the expected invariable-generation
waiting time.

Each trial keeps the mask of still-alive sieves (the reduced unions
containing every element drawn so far) and ANDs in the signature of each
new uniform element; the trial's waiting time is the draw count at which
the mask empties. All trials advance together, one draw per step, and a
trial drops out at the step its mask empties. Masks of any width are held
as one word per 64 sieves, each word in the narrowest unsigned dtype that
holds its sieves (``uint8`` up to 8, then ``uint16``, ``uint32``,
``uint64``), so a step touches as few bytes as the family allows. Each
step ANDs the drawn elements' words into the masks in place and compacts
the alive trials with an order-preserving ``compress``.

The PRNG is numpy's PCG64, seeded explicitly. Step 1 draws
``integers(0, order, size=trials)``; every later step draws
``integers(0, order, size=alive)``, one element per trial still alive, in
trial order. That layout is stream version 2 (version 1 drew a
trials x 32 block first). Identical (group, trials, seed) inputs give
bit-identical reports within one stream version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import and_

from .errors import TrialCapError
from .exact import SieveSystem

STREAM_VERSION = 2

_WORD = 64

# The most trials one run makes, 100 times the CLI default. A live trial
# holds its draw index (8 bytes), its mask words, their drawn copies and
# the compressed copies: peaks measured at 10^6 trials come to about 14
# bytes a trial with one uint8 word and 43 with two uint64 words, so a run
# at the cap peaks near 0.15-0.45 GB at those widths.
MAX_TRIALS = 10**7


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
    every class signature is nonzero), since then no trial can end. With
    no sieves every trial ends at once: no draw is made and the wait is
    0, as in the exact chain.
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
    rng = np.random.Generator(np.random.PCG64(seed))

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
        idx = rng.integers(0, S.order, size=alive)
        for m, t in zip(masks, tables):
            m &= t.take(idx)
        keep = reduce(np.bitwise_or, masks).astype(bool)
        # a Python int, so that total, mean and variance stay Python numbers
        survivors = int(np.count_nonzero(keep))
        if survivors < alive:
            masks = [m.compress(keep) for m in masks]
            alive = survivors

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
