"""Command-line front end.

Subcommands take a group spec as positional tokens (see groupspec for
the grammar) and print a table by default or a schema-versioned JSON
report with ``--json``:

    chebotarev exact elementary 2 2
    chebotarev mc symmetric 3 --trials 100000 --seed 7
    chebotarev crowns dihedral 6 --json
    chebotarev bounds affine 3 1 [[2]]
    chebotarev verify-paper

Exit status is nonzero when a bound is VIOLATED or a verification item
fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Callable, Optional

from .bounds import crown_term, five_thirds_bound
from .crowns import crown_data
from .errors import ChebotarevError
from .exact import (
    DEFAULT_SIEVE_CAP,
    ChebValue,
    build_sieves,
    chebotarev_of_group,
    decimal_string,
)
from .groupspec import parse_group
from .mc import mc_estimate
from .perm import DEFAULT_ORDER_CAP, is_soluble
from .verify import analyze, run_all

DISPLAY_DIGITS = 12


def _group_block(label: str, G) -> dict:
    return {"label": label, "order": G.order, "soluble": is_soluble(G)}


def _crowns_block(cd) -> list[dict]:
    out = []
    for V in list(cd.A) + list(cd.B):
        out.append(
            {
                "p": V.p,
                "n_raw": V.n_raw,
                "q": V.q,
                "n": V.n,
                "delta": V.delta,
                "theta": V.theta,
                "central": V.central,
                "h_order": V.h_order,
                "p_fix": str(V.p_fix),
                "m": V.m,
                "label": V.label,
            }
        )
    return out


def _factor_block(V) -> dict:
    by_size, by_image, chosen = crown_term(V)
    return {
        "label": V.label,
        "by_size": str(by_size),
        "by_image": str(by_image),
        "chosen": str(chosen),
    }


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    g = report["group"]
    print(f"group: {g['label']}  order {g['order']}  soluble={g['soluble']}")
    cheb = report.get("chebotarev")
    if cheb:
        print(
            f"C(G) = {cheb['exact']} = {cheb['decimal']}"
            f"  ({cheb['sieve_count']} sieves, {cheb['state_count']} states)"
        )
    mc = report.get("mc")
    if mc:
        lo, hi = mc["ci95"]
        print(
            f"MC mean = {mc['mean']:.6f}  ci95 [{lo:.6f}, {hi:.6f}]"
            f"  trials={mc['trials']} seed={mc['seed']} max_wait={mc['max_waiting_time']}"
        )
    crowns = report.get("crowns")
    if crowns is not None:
        print("crown classes (complemented abelian chief factors):")
        if not crowns:
            print("  none")
        for V in crowns:
            kind = "central" if V["central"] else "non-central"
            print(
                f"  p={V['p']} dim={V['n_raw']} q={V['q']} n={V['n']}"
                f" delta={V['delta']} theta={V['theta']} |H|={V['h_order']}"
                f" p_fix={V['p_fix']} m={V['m']} ({kind})"
            )
        nonab = report.get("nonabelian_factors") or []
        for order, comp in nonab:
            print(f"  nonabelian factor of order {order} (complemented={comp})")
    bounds_block = report.get("bounds")
    if bounds_block:
        print(
            f"bounds: crown={bounds_block['crown_bound']}"
            f"  min-generators={bounds_block['min_generator_bound']}"
            f"  five-thirds={bounds_block['five_thirds_bound']}  d(G)={bounds_block['d']}"
        )
        for name, verdict in bounds_block["verdicts"].items():
            print(f"  {name}: {verdict}")


def _cheb_block(cv: ChebValue) -> dict:
    return {
        "exact": str(cv.exact),
        "decimal": decimal_string(cv.exact, DISPLAY_DIGITS),
        "sieve_count": cv.sieve_count,
        "state_count": cv.state_count,
    }


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an int no smaller than ``low``, else a usage error."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return parse


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` only parses."""

    def add_common(p, *, suppress):
        # flags repeat on every subcommand so both argument orders work;
        # SUPPRESS keeps an absent subcommand flag from clobbering the
        # value parsed before the subcommand
        kw = {"default": argparse.SUPPRESS} if suppress else {}
        p.add_argument(
            "--json", action="store_true", help="emit a JSON report", **kw
        )
        p.add_argument(
            "--cap-order",
            type=_int_at_least(1),
            help="element-table cap",
            **(kw if suppress else {"default": DEFAULT_ORDER_CAP}),
        )
        p.add_argument(
            "--cap-sieves",
            type=_int_at_least(0),
            help="maximum reduced conjugate-unions for the exact engine",
            **(kw if suppress else {"default": DEFAULT_SIEVE_CAP}),
        )

    parser = argparse.ArgumentParser(
        prog="chebotarev",
        description="Exact and Monte Carlo invariable-generation waiting times.",
    )
    add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cmd(name, help_text, with_spec=True):
        p = sub.add_parser(name, help=help_text)
        add_common(p, suppress=True)
        if with_spec:
            p.add_argument("spec", nargs="+", help="group spec tokens")
        return p

    add_cmd("exact", "exact waiting-time expectation")
    mcp = add_cmd("mc", "Monte Carlo estimate")
    mcp.add_argument("--trials", type=_int_at_least(1), default=100_000)
    mcp.add_argument("--seed", type=lambda s: int(s) & (2**64 - 1), default=0)
    add_cmd("crowns", "chief factor crown data")
    add_cmd("bounds", "bound evaluations and verdicts")
    add_cmd("verify-paper", "run the full verification catalog", with_spec=False)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()

    try:
        if args.command == "verify-paper":
            results = run_all()
            report = {
                "schema_version": 3,
                "group": {"label": "catalog", "order": 1, "soluble": True},
                "verify": [
                    {
                        "key": r.key,
                        "title": r.title,
                        "passed": r.passed,
                        "details": r.details,
                        "seconds": r.seconds,
                    }
                    for r in results
                ],
                "timings": {"total": time.perf_counter() - started},
            }
            if args.json:
                print(json.dumps(report, indent=2, sort_keys=True))
            else:
                for r in results:
                    print(r.line())
                    for d in r.details:
                        print(f"    {d}")
            return 0 if all(r.passed for r in results) else 1

        text = " ".join(args.spec)
        parsed = parse_group(text, order_cap=args.cap_order)
        G = parsed.group
        report: dict = {
            "schema_version": 3,
            "group": _group_block(parsed.label, G),
        }
        exit_code = 0

        if args.command == "exact":
            report["chebotarev"] = _cheb_block(
                chebotarev_of_group(G, max_sieves=args.cap_sieves)
            )
        elif args.command == "mc":
            rep = mc_estimate(build_sieves(G), args.trials, args.seed)
            report["mc"] = {
                "trials": rep.trials,
                "mean": rep.mean,
                "variance": rep.variance,
                "ci95": list(rep.ci95),
                "seed": rep.seed,
                "max_waiting_time": rep.max_waiting_time,
                "stream_version": rep.stream_version,
            }
        elif args.command == "crowns":
            cd = crown_data(G)
            report["crowns"] = _crowns_block(cd)
            report["nonabelian_factors"] = [
                [order, comp] for order, comp in cd.nonabelian_factors
            ]
        elif args.command == "bounds":
            w = analyze(G, max_sieves=args.cap_sieves)
            rb = w.report
            report["chebotarev"] = None if w.exact is None else _cheb_block(w.exact)
            report["crowns"] = _crowns_block(w.crowns)
            report["bounds"] = {
                "exact": None if w.exact is None else str(w.exact.exact),
                "crown_bound": decimal_string(rb.crown_bound_value, DISPLAY_DIGITS),
                "min_generator_bound": decimal_string(rb.min_generator_bound_value, DISPLAY_DIGITS),
                "degenerate_family": rb.degenerate_family,
                "five_thirds_bound": str(five_thirds_bound(G.order))[:DISPLAY_DIGITS + 2],
                "d": w.d,
                "per_factor": [_factor_block(V) for V in w.crowns.A],
                "verdicts": {k: v.value for k, v in rb.verdicts.items()},
            }
            if rb.any_violated():
                exit_code = 1

        report["timings"] = {"total": time.perf_counter() - started}
        _print_report(report, args.json)
        return exit_code
    except ChebotarevError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
