"""Print every metric, by name with its unit, for each workload.

    python3 perfbench/report.py --seed 1 --seconds 25

Runs each workload untraced (end-to-end metrics) and traced (per-layer
metrics) exactly as ``run.py`` does, prints one line per metric and saves
each result record under ``results/``.
"""

from __future__ import annotations

import argparse
import sys

from run import BenchError, describe, machine_info, run, save
from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()
    print("# machine:", machine_info())
    try:
        for workload in WORKLOADS:
            for trace in (False, True):
                result = run(workload, args.seed, args.seconds, trace)
                save(result)
                print("\n".join(describe(result)), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
