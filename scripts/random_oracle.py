#!/usr/bin/env python3
"""Random groups as a differential oracle, on more seeds than tier-1 runs.

For each of the first N seeds of both families of ``oracles.random_group``
(random subgroups of S_n, and of S_a x S_b with generators acting on both
blocks), the package's maximal classes, sieves, d(G), C(G), P_I(G, k),
crown data, Omega masks, m and restricted waiting sums are compared with
the test oracles (``oracles.differential_mismatches``). One line is
printed per group: family, seed, order, the order of the soluble radical
R and the comparisons that disagree. Exits 1 if any comparison disagrees.

Usage: python scripts/random_oracle.py [--seeds 20]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import differential_mismatches, radical_order, random_group  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args()

    failed = 0
    for family in ("sym", "pair"):
        for seed in range(args.seeds):
            G = random_group(family, seed)
            bad = differential_mismatches(G)
            failed += bool(bad)
            print(f"{family} {seed} order={G.order} R={radical_order(G)} {' '.join(bad) or 'ok'}")
    print(f"{failed} of {2 * args.seeds} groups disagree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
