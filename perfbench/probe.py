"""A speed probe that samples how fast the machine runs right now.

On a shared host the CPU speed a process gets drifts by tens of percent
over seconds to minutes, which swamps the differences the benchmark exists
to show. The probe times a fixed pure-Python loop, sharing no code with the
program, at regular intervals while the program runs; a time measured over
an interval is then scaled by the probe times around that interval.
"""

from __future__ import annotations

import bisect
import signal
import time


def _loop(n: int) -> int:
    x = 0
    for i in range(n):
        x += i * i % 7
    return x


class SpeedProbe:
    """Times the probe loop every ``INTERVAL_S`` of wall time, from SIGALRM.

    ``scaled`` turns a measured interval into seconds at the speed where
    one probe takes ``REF_S``: it drops the probe's own time from the
    interval and scales by the mean probe time around it.
    """

    INTERVAL_S = 0.02
    REF_S = 1.5e-4  # the median probe time on the 2-core 2.1 GHz Xeon used to define the benchmark
    MIN_SAMPLES = 8  # widen short intervals to at least this many probes

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []  # the timed loop alone
        self.costs: list[float] = []  # the whole probe, warm-up included
        self._busy = False

    def _sample(self, _signum, _frame) -> None:
        if self._busy:  # a late tick inside the probe: skip, keep starts sorted
            return
        self._busy = True
        start = time.perf_counter()
        _loop(200)  # untimed: refills the caches the program's own work evicted
        timed = time.perf_counter()
        _loop(2000)
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - timed)
        self.costs.append(end - start)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) seconds of [start, end], both without probe time."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        raw = (end - start) - sum(self.costs[lo:hi])
        n = len(self.starts)
        if n == 0:
            raise RuntimeError("speed probe took no samples")
        while hi - lo < min(self.MIN_SAMPLES, n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        mean = sum(self.durations[lo:hi]) / (hi - lo)
        return raw, raw * self.REF_S / mean
