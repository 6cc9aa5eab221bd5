#!/usr/bin/env python3
"""Print the complements and maximal classes of each group, as hex bitsets.

One sorted JSON object per group: its label, one entry per abelian chief
factor (its index in the chief series and the bitsets of the complements
``crowns._complement_system`` returns, in that order) and the bitsets of
the maximal-class representatives (``subgroups.maximal_classes``). The
order is fixed, and every set and dict on the way is keyed by ints, so
the output does not depend on the hash seed, and ``diff`` of the output
of two checkouts lists every group whose complements or maximal classes
changed.

Usage: python scripts/complement_digest.py [SPEC ...] [--seeds N]

Each SPEC is one quoted group spec. With none, the specs are
``report_digest.default_specs()``. ``--seeds N`` adds the first N seeds of
both families of ``oracles.random_group`` (default 0).
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from oracles import random_group  # noqa: E402
from report_digest import default_specs  # noqa: E402

from chebotarev.crowns import _complement_system, chief_series  # noqa: E402
from chebotarev.groupspec import parse_group  # noqa: E402
from chebotarev.subgroups import maximal_classes  # noqa: E402


def digest(label: str, G) -> str:
    series = chief_series(G)
    subs = series.subgroups
    factors = [
        {"factor": i, "complements": [f"{U.bits:x}" for U in _complement_system(G, X, Y)]}
        for i, (X, Y) in enumerate(zip(subs, subs[1:]))
        if series.factor_abelian[i]
    ]
    maximal = [f"{mc.representative.bits:x}" for mc in maximal_classes(G)]
    return json.dumps({"group": label, "factors": factors, "maximal": maximal}, sort_keys=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("specs", nargs="*", metavar="SPEC")
    parser.add_argument("--seeds", type=int, default=0)
    args = parser.parse_args()

    for spec in args.specs or default_specs():
        print(digest(spec, parse_group(spec).group), flush=True)
    for family in ("sym", "pair"):
        for seed in range(args.seeds):
            print(digest(f"random {family} {seed}", random_group(family, seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
