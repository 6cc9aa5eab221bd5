"""One pass of one workload in a fresh process.

Run by ``run.py``; prints one JSON object as its last stdout line:
set-up time, pass wall time, per-op latencies (in the canonical op order
of ``workloads.ops_for``), failures, peak RSS and,
for a traced pass, the per-layer metrics. A traced pass also writes its
spans to ``--spans-out``.

Every op parses its group afresh from the spec text, and in ``catalog``
and ``exact`` each spec runs once per process, so a per-process cache in
the program cannot turn a timed op into a repeat.

Every pass runs the speed probe of ``probe.py`` and reports every time
both scaled to the probe's reference speed and unscaled. The probe shares
the process with the program, so the scaling holds only while the program
runs on one thread and one core; a pass that ran more threads, or used
more CPU time than wall time, exits non-zero without a result.
"""

from __future__ import annotations

import resource
import time


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    return sum(
        u.ru_utime + u.ru_stime
        for u in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


# set-up starts before the program is imported
_T0, _CPU0 = time.perf_counter(), cpu_seconds()

import argparse
import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import numpy

import workloads as wl
from chebotarev import cli, exact, groupspec, mc
from probe import SpeedProbe
from spans import SpanRecorder, layer_metrics


def cli_op(command: str, spec: str) -> tuple[int, str]:
    """Run ``chebotarev COMMAND SPEC --json`` in-process: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        # looked up at call time so a traced pass sees the wrapped entry point
        code = cli.main([command, *spec.split(), "--json"])
    return code, buf.getvalue()


class OpRunner(NamedTuple):
    """How to run one op (timed) and check its output (untimed)."""

    run: Callable[[str, int], Any]
    check: Callable[[str, Any], Optional[str]]


def make_op_runner(workload: str, refs: dict) -> OpRunner:
    """Set up the workload; return its op runner."""
    if workload == "mc":
        sieves = {s: exact.build_sieves(groupspec.parse_group(s).group) for s in wl.MC_SPECS}
        return OpRunner(
            run=lambda spec, mc_seed: mc.mc_estimate(sieves[spec], wl.MC_TRIALS, mc_seed),
            check=lambda spec, rep: wl.check_mc(rep.mean, rep.variance, rep.trials, refs[spec]),
        )
    command = wl.CLI_COMMAND[workload]
    return OpRunner(
        run=lambda spec, _mc_seed: cli_op(command, spec),
        check=lambda spec, out: wl.check_cli(command, spec, *out, refs[spec]),
    )


def warm_up(workload: str, runner: OpRunner) -> None:
    if workload == "mc":
        runner.run(wl.MC_SPECS[0], wl.WARMUP_MC_SEED)
    else:
        code, _ = cli_op(wl.CLI_COMMAND[workload], wl.WARMUP_SPEC)
        if code != 0:
            raise RuntimeError(f"warm-up op exited {code}")


def run_ops(
    ops: list[tuple[str, int]],
    runner: OpRunner,
    recorder: Optional[SpanRecorder] = None,
) -> tuple[list[tuple[float, float]], list[dict]]:
    """Run every op once; return each op's (start, end) and the failures.

    Only ``runner.run`` is timed. An op fails when it raises or when its
    check raises or returns a reason.
    """
    intervals: list[tuple[float, float]] = []
    failures: list[dict] = []
    for op_id, (spec, mc_seed) in enumerate(ops):
        ctx = recorder.op(op_id) if recorder else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with ctx:
                out = runner.run(spec, mc_seed)
        except Exception as exc:  # an op's failure must not end the pass
            out = exc
        intervals.append((start, time.perf_counter()))
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            try:
                reason = runner.check(spec, out)
            except Exception as exc:  # a malformed answer is a failed op
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append({"spec": spec, "mc_seed": mc_seed, "reason": reason})
    return intervals, failures


def thread_count() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        return threading.active_count()


def check_single_core(wall_s: float, cpu_s: float, where: str) -> None:
    """Exit without a result unless the program kept to one thread and one core.

    The probe's timings scale the program's only while the two share one
    core and nothing else of the process competes with either of them.
    """
    threads = thread_count()
    if threads != 1:
        sys.exit(f"{where}: the process runs {threads} threads; the speed probe needs one")
    if cpu_s > 1.02 * wall_s + 0.02:
        sys.exit(
            f"{where}: {cpu_s:.3f} s CPU time in {wall_s:.3f} s wall time;"
            " the speed probe needs the program on one core"
        )


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--spans-out", type=Path, help="trace this pass and write its spans here")
    args = ap.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    refs = wl.load_reference()
    runner = make_op_runner(args.workload, refs)
    warm_up(args.workload, runner)
    setup_end, setup_cpu = time.perf_counter(), cpu_seconds()
    check_single_core(setup_end - _T0, setup_cpu - _CPU0, "set-up")

    canonical = wl.ops_for(args.workload, args.seed)
    order = list(range(len(canonical)))
    random.Random(f"{args.workload}/{args.seed}/{args.pass_index}").shuffle(order)
    ops = [canonical[i] for i in order]

    recorder = SpanRecorder() if args.spans_out else None
    with recorder.installed() if recorder else contextlib.nullcontext():
        intervals, failures = run_ops(ops, runner, recorder)
    probe.stop()
    check_single_core(time.perf_counter() - setup_end, cpu_seconds() - setup_cpu, "pass")

    setup = probe.scaled(_T0, setup_end)
    ops_s: list[tuple[float, float]] = [(0.0, 0.0)] * len(order)
    for j, i in enumerate(order):  # canonical op order, so passes line up op by op
        ops_s[i] = probe.scaled(*intervals[j])
    result = {
        "setup_s": setup[1],
        "raw_setup_s": setup[0],
        "wall_s": sum(s for _, s in ops_s),
        "raw_wall_s": sum(r for r, _ in ops_s),
        "latencies_ms": [s * 1000.0 for _, s in ops_s],
        "raw_latencies_ms": [r * 1000.0 for r, _ in ops_s],
        "probe_mean_s": sum(probe.durations) / len(probe.durations),
    }
    if recorder:
        result["layers"] = layer_metrics(recorder.spans)
        recorder.write(args.spans_out)
    result.update(
        ops=len(intervals),
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
