"""Outside-in span recorder and the per-layer metrics computed from it.

The recorder times calls into the package's public functions from outside:
it rebinds every name in ``chebotarev.*`` that refers to a traced function
object (plus two ``PermGroup`` methods) to a wrapper that records a span,
and restores the original bindings afterwards. Spans stay in memory as
tuples and are written out once, when the pass ends.

A span is ``(span_id, parent_id, op_id, name, start, end, info, error)``:
``parent_id`` is -1 at the top of an op, ``info`` a tuple of counts read
from the call's arguments or result, ``error`` the exception class name
when the call raised.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

Span = tuple[int, int, int, str, float, float, tuple, Optional[str]]

# (span name, module, attribute): module-level public functions.
FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("cli.main", "chebotarev.cli", "main"),
    ("groupspec.parse_group", "chebotarev.groupspec", "parse_group"),
    ("perm.conjugacy_classes", "chebotarev.perm", "conjugacy_classes"),
    ("perm.quotient", "chebotarev.perm", "quotient"),
    ("subgroups.all_subgroups", "chebotarev.subgroups", "all_subgroups"),
    ("subgroups.maximal_classes", "chebotarev.subgroups", "maximal_classes"),
    ("subgroups.minimal_normal_subgroups", "chebotarev.subgroups", "minimal_normal_subgroups"),
    ("subgroups.min_generators", "chebotarev.subgroups", "min_generators"),
    ("crowns.crown_data", "chebotarev.crowns", "crown_data"),
    ("crowns.chief_series", "chebotarev.crowns", "chief_series"),
    ("crowns.factor_module", "chebotarev.crowns", "factor_module"),
    ("crowns.g_isomorphic", "chebotarev.crowns", "g_isomorphic"),
    ("crowns.endo_field", "chebotarev.crowns", "endo_field"),
    ("exact.build_sieves", "chebotarev.exact", "build_sieves"),
    ("exact.chebotarev_exact", "chebotarev.exact", "chebotarev_exact"),
    ("mc.mc_estimate", "chebotarev.mc", "mc_estimate"),
    ("bounds.build_bound_report", "chebotarev.bounds", "build_bound_report"),
)
# (span name, module, class, method)
METHODS: tuple[tuple[str, str, str, str], ...] = (
    ("perm.closure_bits", "chebotarev.perm", "PermGroup", "closure_bits"),
    ("perm.PermGroup.init", "chebotarev.perm", "PermGroup", "__init__"),
)


def package_modules() -> list:
    """Every loaded ``chebotarev`` module, after importing the CLI.

    The CLI imports every other module, so no namespace that could hold a
    traced name is missed.
    """
    importlib.import_module("chebotarev.cli")
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "chebotarev" or name.startswith("chebotarev.")
    ]


class SpanRecorder:
    """Records nested spans of traced calls, grouped by op id."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op_id = -1
        self._next_id = 0
        self._stack: list[int] = []
        self._seen: set[tuple[str, int]] = set()
        self._op_refs: list[object] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- counts read at the span boundary ------------------------------

    def _first_in_op(self, name: str, group: object) -> bool:
        """True the first time this op passes ``group`` to ``name``.

        Lattice and maximal-class results are cached on the group, so only
        the first call per group and op counts as found. The group is kept
        alive until the op ends so its id cannot be reused meanwhile.
        """
        key = (name, id(group))
        if key in self._seen:
            return False
        self._seen.add(key)
        self._op_refs.append(group)
        return True

    def _info_reader(self, name: str) -> Optional[Callable[[tuple, object], tuple]]:
        """The function reading a span's counts from (args, result), if any."""
        if name in ("subgroups.all_subgroups", "subgroups.maximal_classes"):
            return lambda args, res: (len(res) if self._first_in_op(name, args[0]) else 0,)
        return {
            "crowns.chief_series": lambda args, res: (len(res),),
            "exact.build_sieves": lambda args, res: (len(res.raw_unions), res.sieve_count),
            "exact.chebotarev_exact": lambda args, res: (args[0].sieve_count,),
            "mc.mc_estimate": lambda args, res: (res.trials, round(res.mean * res.trials)),
            "perm.PermGroup.init": lambda args, res: (args[0].order,),
        }.get(name)

    # -- wrapping -------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record one span per call."""
        clock, stack, spans = self.clock, self._stack, self.spans
        read_info = self._info_reader(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = rec._next_id
            rec._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = None
            info = ()
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if read_info is not None:
                    info = read_info(args, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, rec.op_id, name, start, end, info, error))

        return traced

    def install(self) -> None:
        """Rebind every traced name in the package to a recording wrapper."""
        if self._saved:
            raise RuntimeError("recorder already installed")
        modules = package_modules()
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, modname, clsname, meth in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self.wrap(name, original))

    def restore(self) -> None:
        """Put back every binding ``install`` replaced."""
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Tag every span recorded inside the block with ``op_id``."""
        self.op_id = op_id
        try:
            yield
        finally:
            self.op_id = -1
            self._seen.clear()
            self._op_refs.clear()

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated lines, one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("span_id\tparent_id\top_id\tname\tstart\tend\tinfo\terror\n")
            for sid, parent, op, name, start, end, info, error in self.spans:
                counts = ",".join(map(str, info))
                fh.write(f"{sid}\t{parent}\t{op}\t{name}\t{start!r}\t{end!r}\t{counts}\t{error or ''}\n")


# -- per-layer metrics ---------------------------------------------------


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's.

    Calls are sequential in one thread, so direct children cover disjoint
    parts of their parent's interval and their durations simply add up.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, _, _, name, start, end, _, _ in spans:
        out[name] += (end - start) - child_time[sid]
    return dict(out)


SELF_TIME_LAYERS: tuple[str, ...] = (
    "perm.closure_bits",
    "subgroups.all_subgroups",
    "crowns.crown_data",
    "crowns.chief_series",
    "crowns.factor_module",
    "crowns.g_isomorphic",
    "crowns.endo_field",
    "perm.quotient",
    "subgroups.min_generators",
    "subgroups.maximal_classes",
    "subgroups.minimal_normal_subgroups",
    "exact.build_sieves",
    "exact.chebotarev_exact",
    "mc.mc_estimate",
    "groupspec.parse_group",
    "perm.PermGroup.init",
    "perm.conjugacy_classes",
    "bounds.build_bound_report",
    "cli.main",
)
CALL_COUNT_LAYERS: tuple[str, ...] = (
    "perm.closure_bits",
    "crowns.factor_module",
    "crowns.g_isomorphic",
    "perm.quotient",
)

#: Per-layer metric names with units, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    **{f"{n}.calls": "count" for n in CALL_COUNT_LAYERS},
    **{f"{n}.self_s": "s" for n in SELF_TIME_LAYERS},
    "subgroups.subgroups_found": "count",
    "subgroups.closures_per_subgroup": "ratio",
    "subgroups.maximal_classes.classes": "count",
    "crowns.chief_length": "count",
    "exact.sieves_raw": "count",
    "exact.sieves_reduced": "count",
    "exact.subsets_total": "count",
    "exact.refused": "count",
    "mc.trials": "count",
    "mc.draws_used": "count",
    "mc.trials_per_s": "1/s",
    "perm.elements_built": "count",
    "trace.overhead_s": "s",
}

#: Counts that must repeat exactly between traced passes of one workload.
DETERMINISTIC_COUNTS: tuple[str, ...] = (
    "perm.closure_bits.calls",
    "subgroups.subgroups_found",
    "subgroups.maximal_classes.classes",
    "exact.sieves_reduced",
    "mc.trials",
    "mc.draws_used",
)


def layer_metrics(spans: Sequence[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but ``trace.overhead_s``)."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    name_of = {s[0]: s[3] for s in spans}
    lattice_closures = 0
    subsets = refused = 0
    mc_busy = 0.0
    for _, parent, _, name, start, end, info, error in spans:
        calls[name] += 1
        for i, v in enumerate(info):
            sums[name][i] += v
        if name == "perm.closure_bits" and name_of.get(parent) == "subgroups.all_subgroups":
            lattice_closures += 1
        elif name == "exact.chebotarev_exact":
            if error == "TooManySievesError":
                refused += 1
            elif error is None:
                subsets += (1 << info[0]) - 1
        elif name == "mc.mc_estimate":
            mc_busy += end - start
    found = sums["subgroups.all_subgroups"][0]
    trials = sums["mc.mc_estimate"][0]
    out: dict[str, float] = {}
    for n in CALL_COUNT_LAYERS:
        out[f"{n}.calls"] = calls[n]
    for n in SELF_TIME_LAYERS:
        out[f"{n}.self_s"] = selfs.get(n, 0.0)
    out.update(
        {
            "subgroups.subgroups_found": found,
            "subgroups.closures_per_subgroup": lattice_closures / found if found else 0.0,
            "subgroups.maximal_classes.classes": sums["subgroups.maximal_classes"][0],
            "crowns.chief_length": sums["crowns.chief_series"][0],
            "exact.sieves_raw": sums["exact.build_sieves"][0],
            "exact.sieves_reduced": sums["exact.build_sieves"][1],
            "exact.subsets_total": subsets,
            "exact.refused": refused,
            "mc.trials": trials,
            "mc.draws_used": sums["mc.mc_estimate"][1],
            "mc.trials_per_s": trials / mc_busy if mc_busy else 0.0,
            "perm.elements_built": sums["perm.PermGroup.init"][0],
        }
    )
    return out


def median_metrics(passes: Sequence[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
