"""Benchmark of the chebotarev package: three workloads, end to end and by layer.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. Each pass runs in a fresh worker process (``worker.py``) that
sets up, runs one warm-up op and then every op of the workload once, in an
order shuffled by the seed. The number of passes is fixed by ``--seconds``
alone (see ``PASSES_PER_25_S``).

``--trace 0`` reports the end-to-end metrics of untraced passes:

- ``setup_s``: median worker set-up (imports, reference loading, MC sieve
  builds, one warm-up op);
- ``wall_s``: median time of one pass over the op list;
- ``op_p50_ms``: median over the ops of each op's median latency across
  passes (ops differ far more than repeats of one op, so the plain median
  of all samples would sit between two ops' extreme repeats);
- ``op_tail_ms``: per-op latency at the highest percentile with at least
  10 samples beyond it (the percentile and sample count are printed);
- ``peak_rss_mb``: median peak resident memory of a worker.

Times are scaled to a reference machine speed measured by a probe that
runs alongside the ops (``probe.py``): on a shared host the speed
a process gets drifts by tens of percent within minutes, and the scaling
cancels most of that drift. The unscaled times are printed next to them
and kept in the result file. The scaling holds only while the program
keeps to one thread and one core, as the probe shares its process: an
untraced pass that breaks this stops the run without a result. (Process
CPU time was tried instead of the probe; it drifted as much as wall time,
since the drift is in the speed the core runs at, not in waiting.)

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``spans.py``), plus
``trace.overhead_s``, the traced minus the untraced median pass time
(both scaled). Traced passes run the probe too, so span times include the
probe's share of about 1 %.

Every op's answer is checked against ``reference.json``; a failed op is
one that raised, exited non-zero or gave a wrong answer. The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record goes to ``results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from probe import SpeedProbe
from spans import DETERMINISTIC_COUNTS, PER_LAYER_UNITS, median_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

# Passes per 25 s of --seconds. A pass takes about 8.5 s (catalog), 5.5 s
# (exact) and 3.5 s (mc) on the 2-core Xeon that defined the benchmark; 5
# exact passes give the 40 op samples a p75 tail with 10 beyond needs. The
# count follows --seconds only, never the program's speed, so a faster
# program does the same work and the percentiles cover the same op mix.
PASSES_PER_25_S = {"catalog": 3, "exact": 5, "mc": 6}
# Every pass must end by then, so the whole run ends within 180 s.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


class BenchError(RuntimeError):
    """A pass could not run, so the run has no result."""


def passes_for(workload: str, seconds: int) -> int:
    return max(1, round(PASSES_PER_25_S[workload] * seconds / 25))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    n = len(sorted_values)
    return sorted_values[max(0, math.ceil(pct / 100.0 * n) - 1)]


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with 10 samples beyond.

    Falls back to the median when there are too few samples for any rung.
    """
    values = sorted(samples)
    n = len(values)
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= TAIL_MIN_BEYOND:
            return pct, nearest_rank(values, pct)
    return 50.0, statistics.median(values)


def run_pass(workload: str, seed: int, index: int, traced: bool, deadline: float) -> dict:
    """Run one pass in a fresh worker process and return its JSON record."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--pass-index={index}",
    ]
    if traced:
        cmd.append(f"--spans-out={RESULTS / f'spans-{workload}-seed{seed}-pass{index}.tsv'}")
    src = str(ROOT / "src")
    # a fixed hash seed keeps set iteration, and so the traced counts, the
    # same in every pass; numpy's thread pools stay at one thread, as the
    # speed probe needs (see worker.py)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for pass {index}")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} of {workload} exceeded the run deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker for {workload} pass {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version()}


def end_to_end(passes: list[dict], prefix: str = "") -> tuple[dict[str, float], dict]:
    """End-to-end metrics of untraced passes, from scaled or (prefix "raw_") raw times."""
    latencies = [ms for p in passes for ms in p[prefix + "latencies_ms"]]
    per_op = zip(*(p[prefix + "latencies_ms"] for p in passes))
    pct, tail = tail_latency(latencies)
    metrics = {
        "setup_s": statistics.median(p[prefix + "setup_s"] for p in passes),
        "wall_s": statistics.median(p[prefix + "wall_s"] for p in passes),
        "op_p50_ms": statistics.median(statistics.median(op) for op in per_op),
        "op_tail_ms": tail,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, {"tail_percentile": pct, "op_samples": len(latencies)}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run the passes for one workload and return the full result record."""
    if not (ROOT / "src" / "chebotarev" / "__init__.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'chebotarev'}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    n = passes_for(workload, seconds)
    plain: list[dict] = []
    traced: list[dict] = []
    if trace:
        for i in range(max(2, n // 2)):  # two traced passes at least, to compare counts
            plain.append(run_pass(workload, seed, 2 * i, False, deadline))
            traced.append(run_pass(workload, seed, 2 * i + 1, True, deadline))
    else:
        plain = [run_pass(workload, seed, i, False, deadline) for i in range(n)]

    every = plain + traced
    attempted = sum(p["ops"] for p in every)
    failures = [f for p in every for f in p["failures"]]
    e2e, extra = end_to_end(plain)
    extra["raw"] = end_to_end(plain, "raw_")[0]
    extra["probe_mean_s"] = statistics.median(p["probe_mean_s"] for p in plain)
    if trace:
        layers = median_metrics([p["layers"] for p in traced])
        layers["trace.overhead_s"] = statistics.median(
            p["wall_s"] for p in traced
        ) - statistics.median(p["wall_s"] for p in plain)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        for k in DETERMINISTIC_COUNTS:
            counts = [p["layers"][k] for p in traced]
            if len(set(counts)) > 1:
                raise BenchError(f"{k} differs between traced passes of {workload}: {counts}")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": {**machine_info(), "numpy": every[0]["numpy"]},
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        **extra,
        "metrics": metrics,
        "failures": failures,
        "per_pass": every,
    }


def describe(result: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    w = result["workload"]
    lines = [
        f"# {w}: seed {result['seed']}, {result['passes']['untraced']} untraced +"
        f" {result['passes']['traced']} traced passes, {result['attempted']} ops,"
        f" {result['failed']} failed (error_rate {result['error_rate']:.6g})",
        f"# op_tail_ms is p{result['tail_percentile']:g} of {result['op_samples']} untraced op samples;"
        f" speed probe mean {result['probe_mean_s'] * 1e6:.1f} us (reference {SpeedProbe.REF_S * 1e6:g} us)",
    ]
    raw = result["raw"] if not result["trace"] else {}
    for name, m in result["metrics"].items():
        line = f"{w:8s} {name:40s} {m['value']:>16.6f} {m['unit']}"
        if name in raw and name != "peak_rss_mb":
            line += f"  (unscaled {raw[name]:.6f})"
        lines.append(line)
    for f in result["failures"]:
        lines.append(f"# FAILED {f['spec']} (mc seed {f['mc_seed']}): {f['reason']}")
    return lines


def save(result: dict) -> Path:
    """Write the full result record under ``results/``."""
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    return out


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="chebotarev benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # exit through Python on SIGTERM, so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save(result)
    print("\n".join(describe(result)))
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
