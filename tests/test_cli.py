import argparse
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from oracles import SOLUBLE_SPECS
from chebotarev import cli, subgroups
from chebotarev.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "src" / "chebotarev" / "report_schema.json").read_text())


def run_json(capsys, *argv):
    code = main(["--json", *argv])
    out = capsys.readouterr().out
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_exact_json(capsys):
    code, report = run_json(capsys, "exact", "elementary", "2", "2")
    assert code == 0
    assert report["group"] == {"label": "elementary 2 2", "order": 4, "soluble": True}
    cheb = report["chebotarev"]
    assert Fraction(cheb["exact"]) == Fraction(10, 3)
    assert cheb["sieve_count"] == 3 and cheb["state_count"] == 5


def test_exact_rational_roundtrip(capsys):
    code, report = run_json(capsys, "exact", "symmetric", "4")
    value = Fraction(report["chebotarev"]["exact"])
    assert value == Fraction(report["chebotarev"]["exact"])  # parses back
    assert 0 < value < 10


def test_python_dash_m(capsys):
    # ``python -m chebotarev`` runs the same main as the console script
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["exact", "cyclic", "4", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "chebotarev", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    _, report = run_json(capsys, *argv)
    sub = json.loads(proc.stdout)
    assert sub.pop("timings") and report.pop("timings")
    assert sub == report


def test_cli_import_leaves_numpy_unloaded():
    # only Monte Carlo needs numpy, so every other command skips its import
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, chebotarev.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_trivial_group(capsys):
    code, report = run_json(capsys, "exact", "cyclic", "1")
    assert code == 0 and Fraction(report["chebotarev"]["exact"]) == 0


def test_mc_json_deterministic(capsys):
    code1, rep1 = run_json(capsys, "mc", "symmetric", "3", "--trials", "20000", "--seed", "9")
    code2, rep2 = run_json(capsys, "mc", "symmetric", "3", "--trials", "20000", "--seed", "9")
    assert code1 == code2 == 0
    assert rep1["mc"] == rep2["mc"]
    assert abs(rep1["mc"]["mean"] - 3.8) < 0.2


def test_mc_elementary_2_6_json(capsys):
    # 63 reduced sieves; the report names the draw stream it came from
    code, report = run_json(
        capsys, "mc", "elementary", "2", "6", "--trials", "20000", "--seed", "3"
    )
    assert code == 0 and report["schema_version"] == 3
    mc = report["mc"]
    assert mc["stream_version"] == 2 and mc["trials"] == 20000
    closed = float(sum(Fraction(64, 64 - 2**i) for i in range(6)))
    assert abs(mc["mean"] - closed) <= 4 * (mc["variance"] / mc["trials"]) ** 0.5


def test_crowns_json(capsys):
    code, report = run_json(capsys, "crowns", "symmetric", "3")
    assert code == 0
    crowns = report["crowns"]
    assert len(crowns) == 2
    non_central = next(c for c in crowns if not c["central"])
    assert (non_central["q"], non_central["n"], non_central["h_order"]) == (3, 1, 2)
    assert Fraction(non_central["p_fix"]) == Fraction(1, 2)


def test_bounds_json_and_exit(capsys):
    code, report = run_json(capsys, "bounds", "affine", "3", "1", "[[2]]")
    assert code == 0
    verdicts = report["bounds"]["verdicts"]
    assert set(verdicts.values()) == {"SATISFIED"}
    assert report["bounds"]["d"] == 2


def test_bounds_elementary_2_6(capsys):
    # d(G) = 6 comes from the subgroup lattice, not a search over 6-tuples
    code, report = run_json(capsys, "bounds", "elementary", "2", "6")
    assert code == 0
    assert report["bounds"]["d"] == 6
    assert set(report["bounds"]["verdicts"].values()) == {"SATISFIED"}


def test_bounds_insoluble_not_applicable(capsys):
    code, report = run_json(capsys, "bounds", "alternating", "5")
    assert code == 0
    assert set(report["bounds"]["verdicts"].values()) == {"NOT_APPLICABLE"}


def test_bounds_trivial_group(capsys):
    code, report = run_json(capsys, "bounds", "cyclic", "1")
    assert code == 0
    assert Fraction(report["chebotarev"]["exact"]) == 0
    assert report["bounds"]["d"] == 0
    assert set(report["bounds"]["verdicts"].values()) == {"SATISFIED"}


def test_bounds_over_the_sieve_cap_is_not_applicable(capsys):
    # the engine refuses 31 sieves, so no verdict can be reached
    code, report = run_json(
        capsys, "bounds", "elementary", "2", "5", "--cap-sieves", "24"
    )
    assert code == 0
    assert report["chebotarev"] is None and report["bounds"]["exact"] is None
    assert set(report["bounds"]["verdicts"].values()) == {"NOT_APPLICABLE"}


def test_table_output(capsys):
    code = main(["exact", "cyclic", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "C(G) = 23/10" in out


def test_parse_error_exit_code(capsys):
    code = main(["exact", "nonsense"])
    err = capsys.readouterr().err
    assert code == 2 and "error" in err


def test_cap_flags(capsys):
    code = main(["--cap-order", "4", "exact", "cyclic", "6"])
    err = capsys.readouterr().err
    assert code == 2 and "cap" in err


@pytest.mark.parametrize(
    "flag, value, low",
    [
        ("--cap-order", "0", 1),
        ("--cap-order", "-1", 1),
        ("--cap-sieves", "-3", 0),
    ],
)
@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_cap_flags_below_their_minimum_are_usage_errors(flag, value, low, before, capsys):
    # rejected while parsing, on either side of the subcommand
    spec = ["bounds", "cyclic", "6"]
    argv = [flag, value, *spec] if before else [*spec, flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert flag in captured.err and f"at least {low}" in captured.err


def test_cap_flags_at_their_minimum(capsys):
    code, report = run_json(capsys, "bounds", "cyclic", "1", "--cap-order", "1")
    assert code == 0 and report["group"]["order"] == 1
    code, report = run_json(capsys, "--cap-sieves", "0", "bounds", "cyclic", "6")
    assert code == 0 and report["chebotarev"] is None


def test_constructor_argument_errors_exit_2(capsys):
    for spec in (
        ["cyclic", "0"],
        ["dihedral", "2"],
        ["elementary", "4", "2"],  # NotPrimeError
        ["affine", "3", "1", "[[0]]"],  # SingularMatrixError
        # matrices that are not n_raw rows of n_raw plain integers
        ["affine", "3", "1", "[[2.5]]"],
        ["affine", "3", "1", "[[null]]"],
        ["affine", "3", "1", "[[1e0]]"],
        ["affine", "3", "1", "[[[1]]]"],
        ["affine", "3", "1", "[1]"],
        ["affine", "3", "1", "[[true]]"],
        ["affine", "3", "2", "[[1,0]]"],
    ):
        code = main(["exact", *spec])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ")


def test_mc_trivial_group_is_zero(capsys):
    # the trivial group has no sieves: every trial waits 0 draws, as the
    # exact engine gives C = 0
    code, report = run_json(capsys, "mc", "cyclic", "1", "--trials", "100")
    assert code == 0
    mc = report["mc"]
    assert mc["mean"] == mc["variance"] == mc["max_waiting_time"] == 0
    assert mc["ci95"] == [0.0, 0.0]


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_mc_nonpositive_trials_is_a_usage_error(trials, capsys):
    # rejected while parsing, like a non-integer count
    with pytest.raises(SystemExit) as exc:
        main(["mc", "cyclic", "2", "--trials", trials])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "--trials" in err and "at least 1" in err


def test_mc_trials_past_the_cap_exit_2(capsys):
    # refused before numpy allocates anything, so the huge count costs nothing
    code = main(["mc", "cyclic", "4", "--trials", str(10**12)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and "exceed the cap of 10000000" in err


def test_mc_seed_is_an_int_wrapped_to_64_bits(capsys):
    # a non-integer seed is refused as --trials refuses one; any integer is
    # taken modulo 2^64
    with pytest.raises(SystemExit) as exc:
        main(["mc", "cyclic", "2", "--seed", "x"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "argument --seed: invalid int value: 'x'" in err
    code, report = run_json(capsys, "mc", "cyclic", "2", "--trials", "10", "--seed", "-1")
    assert code == 0 and report["mc"]["seed"] == 2**64 - 1


def test_exact_elementary_2_5_json_and_cap(capsys):
    code, report = run_json(capsys, "exact", "elementary", "2", "5")
    assert code == 0
    cheb = report["chebotarev"]
    closed = sum(Fraction(32, 32 - 2**i) for i in range(5))
    assert Fraction(cheb["exact"]) == closed
    assert cheb["sieve_count"] == 31 and cheb["state_count"] == 374
    code = main(["exact", "elementary", "2", "5", "--cap-sieves", "24"])
    err = capsys.readouterr().err
    assert code == 2 and "cap of 24" in err


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    # main only parses: the parser and its subparsers are built on the first
    # call and reused by every later one
    cli._parser.cache_clear()
    built = []
    original = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert main(["exact", "cyclic", "2"]) == 0
    first = len(built)
    for argv in (["bounds", "cyclic", "3"], ["--json", "crowns", "cyclic", "2"], ["exact", "cyclic", "2"]):
        assert main(argv) == 0
    assert len(built) == first and built.count("chebotarev") == 1


@pytest.mark.parametrize("before", [True, False])
def test_flags_do_not_leak_into_the_next_call(before, capsys):
    # one call's --cap-sieves 24 refuses elementary 2 5 (31 sieves); the
    # next call, without the flag, gets the default cap back
    flag = ["--cap-sieves", "24"]
    argv = ["exact", "elementary", "2", "5"]
    assert main(flag + argv if before else argv + flag) == 2
    assert "cap of 24" in capsys.readouterr().err
    code, report = run_json(capsys, *argv)
    assert code == 0 and report["chebotarev"]["sieve_count"] == 31


def _replace_lattice(monkeypatch, stand_in):
    # every namespace that binds all_subgroups gets the stand-in
    original = subgroups.all_subgroups
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "chebotarev" and getattr(mod, "all_subgroups", None) is original:
            monkeypatch.setattr(mod, "all_subgroups", stand_in)


def _refuse_lattice(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("the subgroup lattice was walked")

    _replace_lattice(monkeypatch, refuse)


@pytest.mark.parametrize("spec", SOLUBLE_SPECS)
def test_soluble_reports_skip_the_lattice(spec, capsys, monkeypatch):
    _refuse_lattice(monkeypatch)
    for command in ("bounds", "exact", "crowns"):
        code, _ = run_json(capsys, command, *spec.split())
        assert code == 0


def test_radical_reports_walk_only_the_quotient_lattice(capsys, monkeypatch):
    # A5 x S4 has soluble radical S4: only A5 = G/R walks the lattice
    orders = []
    original = subgroups.all_subgroups

    def record(G, *args, **kwargs):
        orders.append(G.order)
        return original(G, *args, **kwargs)

    _replace_lattice(monkeypatch, record)
    code, report = run_json(capsys, "bounds", *"direct_product alternating 5 symmetric 4".split())
    assert code == 0 and report["bounds"]["d"] == 2
    assert orders and set(orders) == {60}
    assert all(isinstance(V["m"], int) for V in report["crowns"])


def test_insoluble_reports_use_the_lattice(monkeypatch):
    _refuse_lattice(monkeypatch)
    with pytest.raises(RuntimeError, match="lattice"):
        main(["--json", "bounds", "symmetric", "5"])


def _table_runs():
    # tests/data/cli_tables.txt: each run is a "$ chebotarev ARGV  [exit N]"
    # line followed by the table it printed
    text = (ROOT / "tests" / "data" / "cli_tables.txt").read_text()
    for run in text.split("$ chebotarev ")[1:]:
        head, _, out = run.partition("\n")
        argv, _, code = head.partition("  [exit ")
        yield pytest.param(argv.split(), int(code.rstrip("]")), out, id=argv)


@pytest.mark.parametrize("argv, code, out", _table_runs())
def test_table_output_unchanged(argv, code, out, capsys):
    # the report digest covers --json only; this pins the table renderer
    assert main(argv) == code
    assert capsys.readouterr().out == out


def _verify_paper(monkeypatch, capsys, results, *flags):
    monkeypatch.setattr(cli, "run_all", lambda: list(results))
    code = main(["verify-paper", *flags])
    return code, capsys.readouterr().out


def test_verify_paper_reports_every_item(verify_results, monkeypatch, capsys):
    results = list(verify_results.values())
    code, out = _verify_paper(monkeypatch, capsys, results, "--json")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert code == 0 and report["group"] == {"label": "catalog", "order": 1, "soluble": True}
    assert report["verify"] == [dataclasses.asdict(r) for r in results]
    code, out = _verify_paper(monkeypatch, capsys, results)
    lines = [line for r in results for line in [r.line(), *(f"    {d}" for d in r.details)]]
    assert code == 0 and out.splitlines() == lines


def test_verify_paper_exits_1_when_an_item_fails(verify_results, monkeypatch, capsys):
    results = list(verify_results.values())
    results[3] = dataclasses.replace(results[3], passed=False)
    code, out = _verify_paper(monkeypatch, capsys, results)
    assert code == 1 and results[3].line().startswith("FAIL ")
    assert out.splitlines().count(results[3].line()) == 1
    code, out = _verify_paper(monkeypatch, capsys, results, "--json")
    assert code == 1 and [r["passed"] for r in json.loads(out)["verify"]].count(False) == 1
