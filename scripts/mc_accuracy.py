#!/usr/bin/env python3
"""Monte Carlo error scaling experiment: estimate error vs trial count.

For each trial budget the script runs several seeds and reports the worst
absolute deviation from the exact value, which should shrink like
1/sqrt(trials), the mean half-width of the 95% interval, the mean seconds
of one run, the mean minor page faults of one run (the process's
``ru_minflt`` over the budget's seeds, divided by the seed count), and the
peak bytes per trial that ``tracemalloc`` traces in one more run (seed 0)
of that budget. numpy reports its array buffers to ``tracemalloc``, so the
peak is the run's arrays, not the process's RSS; the faults show arrays
that are mapped and zero-filled afresh, which the heap would have reused.

The group must be one the exact engine solves, since the error is taken
against the exact value; a spec it refuses is a usage error (exit 2).

Usage: python scripts/mc_accuracy.py [--spec "symmetric 3"] [--seeds 10]
"""

import argparse
import resource
import sys
import time
import tracemalloc

# imported here, so that neither the first budget's seconds nor its traced
# peak include numpy's import, which mc_estimate otherwise makes
import numpy  # noqa: F401
from chebotarev.errors import ChebotarevError
from chebotarev.exact import build_sieves, chebotarev_exact
from chebotarev.groupspec import parse_group
from chebotarev.mc import MAX_TRIALS, mc_estimate


def traced_peak(S, trials: int, seed: int) -> int:
    """Peak bytes ``tracemalloc`` traces during one run, above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mc_estimate(S, trials, seed)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default="symmetric 3")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument(
        "--budgets",
        type=int,
        nargs="+",
        default=[1_000, 10_000, 100_000, 1_000_000],
    )
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if not all(1 <= b <= MAX_TRIALS for b in args.budgets):
        parser.error(f"each budget must lie in 1..{MAX_TRIALS}")

    try:
        parsed = parse_group(args.spec)
        S = build_sieves(parsed.group)
        exact = float(chebotarev_exact(S).exact)
    except ChebotarevError as exc:
        parser.error(f"{args.spec!r}: {exc}")
    print(f"group {parsed.label}: exact = {exact:.10f}")
    print(
        f"{'trials':>9} {'worst |err|':>12} {'mean half-ci':>13} {'s/run':>9}"
        f" {'faults/run':>11} {'peak B/trial':>13}"
    )
    for trials in args.budgets:
        worst = 0.0
        half_sum = 0.0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        for seed in range(args.seeds):
            rep = mc_estimate(S, trials, seed)
            worst = max(worst, abs(rep.mean - exact))
            half_sum += (rep.ci95[1] - rep.ci95[0]) / 2
        seconds = (time.perf_counter() - start) / args.seeds
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        per_trial = traced_peak(S, trials, 0) / trials
        print(
            f"{trials:9d} {worst:12.6f} {half_sum / args.seeds:13.6f}"
            f" {seconds:9.4f} {faults / args.seeds:11.1f} {per_trial:13.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
