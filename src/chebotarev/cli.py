"""Command-line front end.

Subcommands take a group spec as positional tokens (see groupspec for
the grammar) and print a table by default or a schema-versioned JSON
report with ``--json``:

    chebotarev exact elementary 2 2
    chebotarev mc symmetric 3 --trials 100000 --seed 7
    chebotarev crowns dihedral 6 --json
    chebotarev bounds affine 3 1 [[2]]
    chebotarev verify-paper

Each subcommand is one entry of ``COMMANDS``: a function from the group
(None for ``verify-paper``, which runs its fixed catalog) and the parsed
arguments to the report blocks and the exit code. ``main`` wraps the
blocks in one envelope and prints them through one path.

Exit status: 0 success, 1 a bound VIOLATED or a verification item
failed, 2 a usage, parse or construction error.
"""

from __future__ import annotations

import argparse
import dataclasses
import decimal
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
from .verify import ItemResult, analyze, run_all

DISPLAY_DIGITS = 12

_CROWN_FIELDS = ("p", "n_raw", "q", "n", "delta", "theta", "central", "h_order", "m", "label")
_TERM_KEYS = ("by_size", "by_image", "chosen")  # the branches crown_term returns


def _crowns_block(cd) -> list[dict]:
    return [
        {**{k: getattr(V, k) for k in _CROWN_FIELDS}, "p_fix": str(V.p_fix)}
        for V in (*cd.A, *cd.B)
    ]


def _cheb_block(cv: ChebValue) -> dict:
    return {
        "exact": str(cv.exact),
        "decimal": decimal_string(cv.exact, DISPLAY_DIGITS),
        "sieve_count": cv.sieve_count,
        "state_count": cv.state_count,
    }


def _exact(G, args) -> tuple[dict, int]:
    return {"chebotarev": _cheb_block(chebotarev_of_group(G, max_sieves=args.cap_sieves))}, 0


def _mc(G, args) -> tuple[dict, int]:
    # any int is a seed: it is taken modulo 2^64, the report's seed range
    rep = mc_estimate(build_sieves(G), args.trials, args.seed & (2**64 - 1))
    return {"mc": dataclasses.asdict(rep)}, 0


def _crowns(G, args) -> tuple[dict, int]:
    cd = crown_data(G)
    nonabelian = [[order, comp] for order, comp in cd.nonabelian_factors]
    return {"crowns": _crowns_block(cd), "nonabelian_factors": nonabelian}, 0


def _five_thirds_display(order: int) -> str:
    # rounded up, never down: the printed bound is never below (5/3) sqrt(|G|)
    ceiling = decimal.Context(DISPLAY_DIGITS, decimal.ROUND_CEILING)
    return str(ceiling.plus(five_thirds_bound(order)))


def _bounds(G, args) -> tuple[dict, int]:
    w = analyze(G, max_sieves=args.cap_sieves)
    rb = w.report
    bounds = {
        "exact": None if w.exact is None else str(w.exact.exact),
        "crown_bound": decimal_string(rb.crown_bound_value, DISPLAY_DIGITS),
        "min_generator_bound": decimal_string(rb.min_generator_bound_value, DISPLAY_DIGITS),
        "degenerate_family": rb.degenerate_family,
        "five_thirds_bound": _five_thirds_display(G.order),
        "d": w.d,
        "per_factor": [
            {"label": V.label, **dict(zip(_TERM_KEYS, map(str, crown_term(V))))}
            for V in w.crowns.A
        ],
        "verdicts": {k: v.value for k, v in rb.verdicts.items()},
    }
    blocks = {
        "chebotarev": None if w.exact is None else _cheb_block(w.exact),
        "crowns": _crowns_block(w.crowns),
        "bounds": bounds,
    }
    return blocks, 1 if rb.any_violated() else 0


def _verify_paper(G, args) -> tuple[dict, int]:
    results = run_all()
    code = 0 if all(r.passed for r in results) else 1
    return {"verify": [dataclasses.asdict(r) for r in results]}, code


#: name -> (help, run, takes a spec)
COMMANDS = {
    "exact": ("exact waiting-time expectation", _exact, True),
    "mc": ("Monte Carlo estimate", _mc, True),
    "crowns": ("chief factor crown data", _crowns, True),
    "bounds": ("bound evaluations and verdicts", _bounds, True),
    "verify-paper": (
        "run the full verification catalog at the default caps", _verify_paper, False
    ),
}


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    if "verify" in report:
        for r in report["verify"]:
            print(ItemResult(**r).line())
            for d in r["details"]:
                print(f"    {d}")
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
            help="element-table cap, read by every command that takes a spec",
            **(kw if suppress else {"default": DEFAULT_ORDER_CAP}),
        )
        p.add_argument(
            "--cap-sieves",
            type=_int_at_least(0),
            help="maximum reduced conjugate-unions for the exact engine,"
            " read by exact and bounds",
            **(kw if suppress else {"default": DEFAULT_SIEVE_CAP}),
        )

    parser = argparse.ArgumentParser(
        prog="chebotarev",
        description="Exact and Monte Carlo invariable-generation waiting times.",
    )
    add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, takes_spec) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_common(p, suppress=True)
        if takes_spec:
            p.add_argument("spec", nargs="+", help="group spec tokens")
        if run is _mc:
            p.add_argument("--trials", type=_int_at_least(1), default=100_000)
            p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    _, run, takes_spec = COMMANDS[args.command]
    try:
        if takes_spec:
            parsed = parse_group(" ".join(args.spec), order_cap=args.cap_order)
            G = parsed.group
            group = {"label": parsed.label, "order": G.order, "soluble": is_soluble(G)}
        else:  # the fixed catalog has no one group: a placeholder block
            G, group = None, {"label": "catalog", "order": 1, "soluble": True}
        blocks, exit_code = run(G, args)
    except ChebotarevError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    timings = {"total": time.perf_counter() - started}
    _print_report({"schema_version": 3, "group": group, **blocks, "timings": timings}, args.json)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
