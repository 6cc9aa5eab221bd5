#!/usr/bin/env python3
"""Sweep the soluble catalog and tabulate exact values against bounds.

Usage: python scripts/catalog_sweep.py [--sort-by ratio|order]
"""

import argparse
import math
import sys

from chebotarev.bounds import SIGMA
from chebotarev.catalog import SOLUBLE_CATALOG
from chebotarev.verify import work_for


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sort-by", choices=["ratio", "order"], default="ratio")
    args = parser.parse_args()

    rows = []
    for label in SOLUBLE_CATALOG:
        w = work_for(label)
        exact = w.exact.exact
        ratio = float(exact) / math.sqrt(w.group.order)
        crown_b = w.report.crown_bound_value
        slack = float(crown_b - exact)
        rows.append((label, w.group.order, exact, ratio, float(crown_b), slack, w.d))

    key = (lambda r: -r[3]) if args.sort_by == "ratio" else (lambda r: r[1])
    rows.sort(key=key)

    print(f"{'group':42} {'|G|':>5} {'C(G)':>12} {'C/sqrt':>8} {'crown bd':>9} {'slack':>8} {'d':>2}")
    for label, order, exact, ratio, crown_b, slack, d in rows:
        print(
            f"{label:42} {order:5d} {str(exact):>12} {ratio:8.4f} {crown_b:9.3f} {slack:8.3f} {d:2d}"
        )
    print(f"\n{len(rows)} groups; sigma = {float(SIGMA)}")
    worst = max(rows, key=lambda r: r[3])
    print(f"largest ratio: {worst[0]} at {worst[3]:.6f} (5/3 = {5 / 3:.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
