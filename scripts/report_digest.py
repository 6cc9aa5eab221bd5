#!/usr/bin/env python3
"""Print the ``bounds``, ``exact`` and ``crowns`` JSON reports, timings dropped.

Each line is one sorted JSON object per (command, spec): the command, the
spec, the exit status, the report without its ``timings`` block, and the
error text when the command fails. The order is fixed, so ``diff`` of the
output of two checkouts lists every report that changed.

Usage: python scripts/report_digest.py [SPEC ...]

Each SPEC is one quoted group spec. With none, the specs are the lists of
``chebotarev.catalog`` followed by ``INSOLUBLE_SPECS``, and one line per
``verify-paper --json`` item follows, its ``seconds`` dropped. That
default output is kept as ``tests/data/report_digest.jsonl``, which the
tests compare against.
"""

import contextlib
import io
import json
import sys

from chebotarev.catalog import FRATTINI_CATALOG, MC_CATALOG, RATIO_CATALOG, SOLUBLE_CATALOG
from chebotarev.cli import main as cli_main

COMMANDS = ("bounds", "exact", "crowns")

#: Insoluble groups whose soluble radical, nonabelian chief factors and
#: lattice walk of G/R the catalog lists do not reach. The last two,
#: AGL(3,2) and 2^4:SL(2,4), split their natural module with H^1 of
#: dimension 1 over the commutant field F_2 and F_4, so their crowns
#: report m = 1, which no catalog group does.
INSOLUBLE_SPECS = (
    "symmetric 6",
    "direct_product alternating 5 symmetric 4",
    "direct_product symmetric 5 symmetric 3",
    "alternating 6",
    "affine 2 3 [[1,1,0],[0,1,0],[0,0,1]] [[0,0,1],[1,0,0],[0,1,0]]",
    "affine 2 4 [[1,0,1,0],[0,1,0,1],[0,0,1,0],[0,0,0,1]]"
    " [[1,0,0,1],[0,1,1,1],[0,0,1,0],[0,0,0,1]]"
    " [[1,0,0,0],[0,1,0,0],[1,0,1,0],[0,1,0,1]]",
)


def default_specs() -> list[str]:
    specs = SOLUBLE_CATALOG + tuple(c.spec for c in RATIO_CATALOG)
    return list(dict.fromkeys(specs + MC_CATALOG + FRATTINI_CATALOG + INSOLUBLE_SPECS))


def digest(command: str, spec: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([command, *spec.split(), "--json"])
    line = {"command": command, "spec": spec, "exit": code}
    if out.getvalue():
        report = json.loads(out.getvalue())
        report.pop("timings", None)
        line["report"] = report
    if err.getvalue():
        line["error"] = err.getvalue().strip()
    return json.dumps(line, sort_keys=True)


def main() -> int:
    specs = sys.argv[1:]
    for spec in specs or default_specs():
        for command in COMMANDS:
            print(digest(command, spec), flush=True)
    if not specs:
        line = json.loads(digest("verify-paper", ""))
        for item in line["report"]["verify"]:
            del item["seconds"]
            row = {"command": "verify-paper", "exit": line["exit"], "item": item}
            print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
