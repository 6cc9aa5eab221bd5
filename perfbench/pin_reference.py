"""Write ``reference.json``: the pinned answer for every spec a workload uses.

    PYTHONPATH=src python3 perfbench/pin_reference.py

For each spec it records the exact C(G) string, the order and solubility as
``chebotarev exact SPEC --json`` reports them. Where the exact engine
refuses (``elementary 2 5``) the closed form for elementary abelian groups
stands in. It then runs every Monte Carlo op of every seed block against
the 4-sigma rule and exits non-zero if any misses, so that the seed blocks
a benchmark run can draw have all been checked.

Only rerun this at a commit whose exact values are known to be right:
the benchmark's correctness checks compare against this file.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import workloads as wl
from chebotarev.groupspec import parse_group
from chebotarev.perm import is_soluble
from worker import cli_op, make_op_runner


def pin() -> dict:
    groups = {}
    for spec in wl.all_specs():
        code, out = cli_op("exact", spec)
        cf = wl.closed_form(spec)
        if code == 0:
            report = json.loads(out)
            exact = report["chebotarev"]["exact"]
            order, soluble = report["group"]["order"], report["group"]["soluble"]
        elif cf is not None:
            G = parse_group(spec).group
            exact, order, soluble = str(cf), G.order, is_soluble(G)
        else:
            raise SystemExit(f"{spec}: exact engine exited {code} and no closed form applies")
        if cf is not None and Fraction(exact) != cf:
            raise SystemExit(f"{spec}: engine gives {exact}, closed form {cf}")
        groups[spec] = {"exact": exact, "order": order, "soluble": soluble}
    return {"groups": groups}


def check_mc_blocks(groups: dict) -> list[str]:
    run_mc = make_op_runner("mc", groups)
    misses = []
    for block in range(wl.MC_SEED_BLOCKS):
        for spec, mc_seed in wl.ops_for("mc", block):
            reason = run_mc(spec, mc_seed)
            if reason:
                misses.append(f"{spec} seed {mc_seed}: {reason}")
    return misses


def main() -> int:
    ref = pin()
    wl.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    wl.load_reference()
    misses = check_mc_blocks(ref["groups"])
    for m in misses:
        print("MISS", m, file=sys.stderr)
    print(f"pinned {len(ref['groups'])} groups; {len(misses)} Monte Carlo misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
