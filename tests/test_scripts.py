"""Smoke tests: each script in scripts/ runs to completion on a small input."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
