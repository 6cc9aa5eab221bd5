import json
import time
from fractions import Fraction

import pytest

import workloads as wl
from chebotarev import build_sieves, chebotarev_exact, parse_group
from chebotarev.errors import TooManySievesError
from probe import SpeedProbe
from run import tail_latency
import worker
from worker import OpRunner, cli_op, run_ops

REFS = wl.load_reference()


def _cli(command, spec):
    code, out = cli_op(command, spec)
    return wl.check_cli(command, spec, code, out, REFS[spec])


def test_correct_ops_pass():
    assert _cli("bounds", "elementary 2 2") is None
    assert _cli("bounds", "alternating 5") is None
    assert _cli("exact", "elementary 3 3") is None


def test_each_failure_kind_is_counted():
    ref = REFS["elementary 2 2"]
    wrong = dict(ref, exact="7/2")
    exact = float(Fraction(ref["exact"]))
    capped = "elementary 2 3 --cap-sieves 4"  # 7 reduced sieves over a cap of 4

    def run(kind, _seed):
        if kind in ("ok", "wrong"):
            return cli_op("exact", "elementary 2 2")
        if kind == "exit":
            # the CLI reports the refusal as exit code 2
            return cli_op("exact", capped)
        if kind == "raise":
            return chebotarev_exact(build_sieves(parse_group("elementary 2 3").group), max_sieves=4)
        if kind == "mc":
            # variance 1 over 10^4 trials: sigma 0.01, mean 0.05 off
            return exact + 0.05
        raise AssertionError(kind)

    def check(kind, out):
        if kind == "mc":
            return wl.check_mc(out, 1.0, 10_000, ref)
        if kind == "exit":
            return wl.check_cli("exact", capped, *out, REFS["elementary 2 3"])
        return wl.check_cli("exact", "elementary 2 2", *out, wrong if kind == "wrong" else ref)

    ops = [(k, 0) for k in ("ok", "wrong", "exit", "raise", "mc")]
    latencies, failures = run_ops(ops, OpRunner(run, check))
    assert len(latencies) == 5
    assert [f["spec"] for f in failures] == ["wrong", "exit", "raise", "mc"]
    assert "exit code 2" in failures[1]["reason"]
    assert TooManySievesError.__name__ in failures[2]["reason"]


def test_checks_are_not_timed():
    def run(_spec, _seed):
        return None

    def check(_spec, _out):
        time.sleep(0.05)
        raise KeyError("verdicts")  # a malformed answer fails the op, not the pass

    (interval,), failures = run_ops([("x", 0)], OpRunner(run, check))
    assert interval[1] - interval[0] < 0.04
    assert "check raised KeyError" in failures[0]["reason"]


def test_mc_check_accepts_within_four_sigma():
    ref = REFS["symmetric 3"]
    exact = float(Fraction(ref["exact"]))
    assert wl.check_mc(exact + 0.039, 1.0, 10_000, ref) is None


def test_insoluble_bounds_must_be_not_applicable():
    code, out = cli_op("bounds", "symmetric 5")
    report = json.loads(out)
    report["bounds"]["verdicts"]["crown"] = "SATISFIED"
    reason = wl.check_cli("bounds", "symmetric 5", code, json.dumps(report), REFS["symmetric 5"])
    assert reason and "NOT_APPLICABLE" in reason


def test_reference_checks_closed_form_and_klein(tmp_path):
    data = json.loads(wl.REFERENCE_PATH.read_text())
    assert Fraction(data["groups"]["elementary 2 5"]["exact"]) == wl.closed_form("elementary 2 5")
    data["groups"]["elementary 17 2"]["exact"] = "2"
    bad = tmp_path / "ref.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="closed form"):
        wl.load_reference(bad)
    assert wl.klein_identity(Fraction(10, 3), 4)
    assert not wl.klein_identity(Fraction(19, 5), 6)


def test_catalog_and_exact_run_each_spec_once():
    for workload in ("catalog", "exact"):
        specs = [s for s, _ in wl.ops_for(workload, 3)]
        assert len(specs) == len(set(specs))
        assert wl.WARMUP_SPEC not in specs
    assert len(wl.ops_for("catalog", 0)) == 68
    assert len(wl.ops_for("mc", 0)) == 60


def test_tail_latency_keeps_ten_samples_beyond():
    assert tail_latency([float(i) for i in range(1, 201)]) == (95.0, 190.0)
    assert tail_latency([float(i) for i in range(1, 41)]) == (75.0, 30.0)
    assert tail_latency([1.0, 2.0, 3.0]) == (50.0, 2.0)


def test_speed_probe_scaling():
    probe = SpeedProbe()
    # one probe every 0.1 s costing 0.011 s (timed loop 0.01 s) before t = 1,
    # and 0.022 s (0.02 s) after
    probe.starts = [0.1 * i for i in range(20)]
    probe.durations = [0.01 if t < 1.0 else 0.02 for t in probe.starts]
    probe.costs = [1.1 * d for d in probe.durations]
    raw, scaled = probe.scaled(0.05, 0.85)  # eight probes inside, all fast
    assert raw == pytest.approx(0.8 - 8 * 0.011)
    assert scaled == pytest.approx(raw * probe.REF_S / 0.01)
    raw, scaled = probe.scaled(1.52, 1.53)  # none inside: the 8 around, all slow
    assert raw == pytest.approx(0.01)
    assert scaled == pytest.approx(0.01 * probe.REF_S / 0.02)


def test_single_core_guard(monkeypatch):
    monkeypatch.setattr(worker, "thread_count", lambda: 1)
    worker.check_single_core(1.0, 0.9, "pass")
    with pytest.raises(SystemExit, match="one core"):
        worker.check_single_core(1.0, 1.8, "pass")
    monkeypatch.setattr(worker, "thread_count", lambda: 3)
    with pytest.raises(SystemExit, match="3 threads"):
        worker.check_single_core(1.0, 0.9, "pass")
