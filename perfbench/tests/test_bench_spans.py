import pytest

import chebotarev
import workloads as wl
from spans import DETERMINISTIC_COUNTS, SpanRecorder, layer_metrics, package_modules, self_times
from worker import make_op_runner, run_ops


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and b [6, 8]
    spans = [
        (2, 1, 0, "b", 2.0, 3.0, (), None),
        (1, 0, 0, "a", 1.0, 4.0, (), None),
        (3, 0, 0, "b", 6.0, 8.0, (), None),
        (0, -1, 0, "outer", 0.0, 10.0, (), None),
    ]
    assert self_times(spans) == {"outer": 5.0, "a": 2.0, "b": 3.0}


def test_recorder_spans_nest_with_op_ids():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def leaf():
        clock.now += 1.0

    leaf_w = rec.wrap("leaf", leaf)

    def outer():
        clock.now += 2.0
        leaf_w()
        leaf_w()

    outer_w = rec.wrap("outer", outer)
    with rec.op(7):
        outer_w()
    assert [(s[0], s[1], s[2], s[3]) for s in rec.spans] == [
        (1, 0, 7, "leaf"),
        (2, 0, 7, "leaf"),
        (0, -1, 7, "outer"),
    ]
    assert self_times(rec.spans) == {"leaf": 2.0, "outer": 2.0}


def _bindings():
    out = {}
    for mod in package_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
    for key, value in vars(chebotarev.PermGroup).items():
        out[("PermGroup", key)] = value
    return out


def test_recorder_restores_every_binding():
    before = _bindings()
    rec = SpanRecorder()
    with rec.installed():
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("chebotarev.cli", "main") in changed
        assert ("chebotarev.crowns", "all_subgroups") in changed
        assert ("chebotarev", "mc_estimate") in changed
        assert ("PermGroup", "closure_bits") in changed
        assert ("PermGroup", "__init__") in changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_recorder_restores_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with SpanRecorder().installed():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


SMALL_OPS = {
    "catalog": [("dihedral 6", 0), ("symmetric 4", 0), ("alternating 5", 0)],
    "exact": [("elementary 3 3", 0), ("direct_product elementary 3 3 cyclic 2", 0)],
    "mc": [("symmetric 3", 1), ("elementary 2 5", 2)],
}


def _traced_pass(workload):
    runner = make_op_runner(workload, wl.load_reference())
    rec = SpanRecorder()
    with rec.installed():
        latencies, failures = run_ops(SMALL_OPS[workload], runner, rec)
    assert failures == [] and len(latencies) == len(SMALL_OPS[workload])
    assert {s[2] for s in rec.spans} <= set(range(len(latencies)))
    return layer_metrics(rec.spans)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_two_traced_runs_report_identical_counts(workload):
    first, second = _traced_pass(workload), _traced_pass(workload)
    counts = {k: first[k] for k in DETERMINISTIC_COUNTS}
    assert counts == {k: second[k] for k in DETERMINISTIC_COUNTS}
    if workload == "mc":
        assert counts["mc.trials"] == 2 * wl.MC_TRIALS
    else:
        assert counts["perm.closure_bits.calls"] > 0
        assert counts["subgroups.subgroups_found"] > 0
        assert counts["exact.sieves_reduced"] > 0
