"""Smoke tests: each script in scripts/ runs to completion on a small input."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from chebotarev import verify

ROOT = Path(__file__).resolve().parents[1]
DIGEST = ROOT / "tests" / "data" / "report_digest.jsonl"


def _run(script: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_mc_accuracy_runs():
    out = _run("mc_accuracy.py", "--seeds", "2", "--budgets", "1000")
    assert "group symmetric 3: exact = 3.8000000000" in out


def test_random_oracle_runs():
    out = _run("random_oracle.py", "--seeds", "2").splitlines()
    assert [line.split()[:2] for line in out[:-1]] == [
        ["sym", "0"], ["sym", "1"], ["pair", "0"], ["pair", "1"]
    ]
    assert out[-1] == "0 of 4 groups disagree"


def test_catalog_sweep_runs():
    out = _run("catalog_sweep.py")
    assert out.rstrip().splitlines()[-1].startswith("largest ratio: ")


def test_report_digest_runs():
    specs = ("symmetric 3", "alternating 5")
    lines = [json.loads(line) for line in _run("report_digest.py", *specs).splitlines()]
    assert [(d["command"], d["spec"]) for d in lines] == [
        (c, s) for s in specs for c in ("bounds", "exact", "crowns")
    ]
    assert all(d["exit"] == 0 and "timings" not in d["report"] for d in lines)


def _report_digest():
    # scripts/report_digest.py, loaded as a module
    path = ROOT / "scripts" / "report_digest.py"
    spec = importlib.util.spec_from_file_location("report_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_report_digest_adds_verify_items_without_arguments(monkeypatch, capsys):
    # with no spec, the verify-paper items follow the reports, seconds dropped
    script = _report_digest()
    monkeypatch.setattr(script, "default_specs", lambda: ["cyclic 2"])
    cheap = (verify.item_small_exact, verify.item_frattini_invariance)
    monkeypatch.setattr(verify, "ALL_ITEMS", cheap)
    monkeypatch.setattr(sys, "argv", ["report_digest.py"])
    assert script.main() == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    commands = ["bounds", "exact", "crowns", "verify-paper", "verify-paper"]
    assert [d["command"] for d in lines] == commands
    items = [d["item"] for d in lines[3:]]
    assert [i["key"] for i in items] == ["exact-small", "frattini-invariance"]
    assert all(d["exit"] == 0 for d in lines[3:])
    assert all(i["passed"] and "seconds" not in i for i in items)


def test_every_report_unchanged(verify_results):
    # the default output of report_digest.py is committed as DIGEST; its
    # verify-paper lines are built from the session's verify items, which
    # the acceptance tests read too, so the catalog is not run twice
    script = _report_digest()
    got = [script.digest(c, s) for s in script.default_specs() for c in script.COMMANDS]
    code = 0 if all(r.passed for r in verify_results.values()) else 1
    for r in verify_results.values():
        item = {"details": r.details, "key": r.key, "passed": r.passed, "title": r.title}
        got.append(json.dumps({"command": "verify-paper", "exit": code, "item": item}, sort_keys=True))
    want = DIGEST.read_text().splitlines()

    def name(line):
        d = json.loads(line)
        return f"{d['command']} {d['item']['key'] if 'item' in d else d['spec']}"

    assert [name(line) for line in got] == [name(line) for line in want]
    changed = [name(line) for line, old in zip(got, want) if line != old]
    assert changed == [], f"{len(changed)} reports changed: {changed}"
