"""Per-layer tracing from outside the program.

The traced run wraps public names of `jbv` where each consumer module binds
them (so `transfer.coefficient_arrays` and `diagnostics.coefficient_arrays`
are wrapped separately) and records one span per call: name, start, end,
parent span and the id of the CLI call it belongs to, plus the work the call
did.  Three very hot names (`Matrix2.__matmul__`, `PolynomialReal.__call__`,
`bisect_root`) are only counted.  Spans and counts stay in memory in compact
arrays; `save` writes them once, at the end of the run.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array

import numpy as np

# per-layer metric -> unit, in the order they are printed
PER_LAYER = {
    "coeffs.arrays.calls": "count", "coeffs.arrays.s": "s",
    "coeffs.arrays.elems": "count",
    "coeffs.scalar.calls": "count", "coeffs.scalar.s": "s",
    "transfer.scan.steps": "count", "transfer.scan.s": "s",
    "transfer.scan.steps_per_s": "steps/s",
    "transfer.product.calls": "count", "transfer.product.steps": "count",
    "transfer.product.s": "s",
    "transfer.block.calls": "count", "transfer.block.s": "s",
    "matrix2.matmul.calls": "count",
    "density.points": "count", "density.weyl.calls": "count",
    "density.weyl.s": "s", "density.branch_ratio": "ratio",
    "diagnostics.growth.s": "s", "diagnostics.verify.s": "s",
    "diagnostics.verify.step_ratio": "ratio",
    "constructions.schedule.s": "s", "constructions.replay_ratio": "ratio",
    "periodic.band_structure.calls": "count", "periodic.band_structure.s": "s",
    "periodic.band_structure.failed": "count",
    "polynomial.evals": "count", "polynomial.bisect.calls": "count",
    "intervals.ops.calls": "count", "intervals.ops.s": "s",
    "cli.bands.self_s": "s", "cli.construct.self_s": "s",
    "cli.density.self_s": "s", "cli.diagnose.self_s": "s",
    "cli.verify.self_s": "s", "cli.intersect.self_s": "s",
    "trace_overhead": "ratio",
}
CLI_COMMANDS = ("bands", "construct", "density", "diagnose", "verify", "intersect")


# (module, owner inside it or None, attribute, span name, work(args, result))
SPANS = [
    *[(m, None, "coefficient_arrays", "coeffs.arrays",
       lambda args, result: args[2] - args[1])
      for m in ("jbv.transfer", "jbv.diagnostics", "jbv.constructions")],
    *[(m, None, "eval_coefficients", "coeffs.scalar", None)
      for m in ("jbv.transfer", "jbv.density")],
    ("jbv.transfer", "GrowthScanner", "feed_arrays", "transfer.scan",
     lambda args, result: len(args[1])),
    ("jbv.diagnostics", None, "transfer_product", "transfer.product",
     lambda args, result: args[2] - args[1] + 1),
    ("jbv.density", None, "q_step_block", "transfer.block", None),
    ("jbv.density", None, "weyl_solution", "density.weyl", None),
    ("jbv.cli", None, "ac_density", "density.point", None),
    ("jbv.cli", None, "growth_statistic", "diagnostics.growth", None),
    # work: the window length k - m
    ("jbv.cli", None, "verify_gap_window_growth", "diagnostics.verify",
     lambda args, result: args[3] - args[2]),
    # work: horizon x gap centers per level, what one scan per center needs
    ("jbv.cli", None, "build_schedule", "constructions.schedule",
     lambda args, result: result.horizon * (result.q - 1)),
    *[(m, None, "band_structure", "periodic.band_structure", None)
      for m in ("jbv.cli", "jbv.periodic", "jbv.diagnostics")],
    ("jbv.cli", None, "gap_report", "periodic.gap_report", None),
    ("jbv.cli", None, "intersection_over_family", "periodic.intersection", None),
    *[("jbv.intervals", "IntervalUnion", op, "intervals.ops", None)
      for op in ("of", "intersect", "difference")],
]
COUNTS = [
    ("jbv.matrix2", "Matrix2", "__matmul__", "matrix2.matmul"),
    ("jbv.polynomial", "PolynomialReal", "__call__", "polynomial.evals"),
    ("jbv.periodic", None, "bisect_root", "polynomial.bisect"),
]


class Tracer:
    """Spans and counts of one traced pipeline, kept in memory."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.failed = array("b")
        self.counts: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._call_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def counter(self, name: str) -> list[int]:
        return self.counts.setdefault(name, [0])

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self._call_id)
        self.end.append(0.0)
        self.work.append(0.0)
        self.failed.append(0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def begin_call(self, name: str, call_id: int) -> int:
        self._call_id = call_id
        return self.begin(self.name_id(name))

    def finish(self, i: int, work: float, failed: bool) -> None:
        self.end[i] = self.clock()
        self.work[i] = work
        self.failed[i] = failed
        self._stack.pop()

    def columns(self) -> dict[str, np.ndarray]:
        return {k: np.frombuffer(getattr(self, k), dtype=getattr(self, k).typecode)
                for k in ("name", "parent", "call", "start", "end", "work", "failed")}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns(),
                            count_names=np.array(list(self.counts)),
                            count_values=np.array([c[0] for c in self.counts.values()]))


def _timed(tr: Tracer, fn, name: str, work):
    nid = tr.name_id(name)

    def wrapper(*args, **kwargs):
        i = tr.begin(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tr.finish(i, 0.0, True)
            raise
        tr.finish(i, work(args, result) if work else 0.0, False)
        return result
    return wrapper


def _counted(tr: Tracer, fn, name: str):
    cell = tr.counter(name)

    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)
    return wrapper


class Installed:
    """Wrappers of one tracer installed into the jbv modules; leaving the
    context restores the original attributes."""

    def __init__(self, tr: Tracer) -> None:
        self._saved = []
        for module, owner, attr, name, work in SPANS:
            self._wrap(module, owner, attr, lambda fn: _timed(tr, fn, name, work))
        for module, owner, attr, name in COUNTS:
            tr.counter(name)
            self._wrap(module, owner, attr, lambda fn: _counted(tr, fn, name))

    def _wrap(self, module, owner, attr, make) -> None:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
            raw = target.__dict__[attr]
        else:
            raw = getattr(target, attr)
        self._saved.append((target, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(target, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(target, attr, make(raw))

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        for target, attr, raw in reversed(self._saved):
            setattr(target, attr, raw)


def self_times(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children
    (children of one span never overlap: the program is single-threaded)."""
    dur = cols["end"] - cols["start"]
    has_parent = cols["parent"] >= 0
    child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child


def _under(cols, names: list[str], ancestor: str) -> np.ndarray:
    """Whether each span has an ancestor span called `ancestor`."""
    if ancestor not in names:
        return np.zeros(len(cols["name"]), dtype=bool)
    target = names.index(ancestor)
    found = np.zeros(len(cols["name"]), dtype=bool)
    anc = cols["parent"].copy()
    while (anc >= 0).any():
        live = anc >= 0
        found[live] |= cols["name"][anc[live]] == target
        anc[live] = cols["parent"][anc[live]]
    return found


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric except trace_overhead, from one traced pipeline.

    A layer's seconds are the summed durations of its outermost spans, so a
    layer call nested in a call of the same layer is not counted twice.
    """
    cols = tr.columns()
    names = tr.names
    dur = cols["end"] - cols["start"]
    parent_name = np.where(cols["parent"] >= 0, cols["name"][cols["parent"]], -1)

    def sel(name):
        return cols["name"] == (names.index(name) if name in names else -1)

    def calls(name):
        return float(sel(name).sum())

    def seconds(name):
        m = sel(name)
        return float(dur[m & (parent_name != cols["name"])].sum())

    def work(name, mask=True):
        return float(cols["work"][sel(name) & mask].sum())

    def ratio(a, b):
        return a / b if b else 0.0

    selfs = self_times(cols)
    out = {
        "coeffs.arrays.calls": calls("coeffs.arrays"),
        "coeffs.arrays.s": seconds("coeffs.arrays"),
        "coeffs.arrays.elems": work("coeffs.arrays"),
        "coeffs.scalar.calls": calls("coeffs.scalar"),
        "coeffs.scalar.s": seconds("coeffs.scalar"),
        "transfer.scan.steps": work("transfer.scan"),
        "transfer.scan.s": seconds("transfer.scan"),
        "transfer.product.calls": calls("transfer.product"),
        "transfer.product.steps": work("transfer.product"),
        "transfer.product.s": seconds("transfer.product"),
        "transfer.block.calls": calls("transfer.block"),
        "transfer.block.s": seconds("transfer.block"),
        "matrix2.matmul.calls": float(tr.counter("matrix2.matmul")[0]),
        "density.points": calls("density.point"),
        "density.weyl.calls": calls("density.weyl"),
        "density.weyl.s": seconds("density.weyl"),
        "diagnostics.growth.s": seconds("diagnostics.growth"),
        "diagnostics.verify.s": seconds("diagnostics.verify"),
        "constructions.schedule.s": seconds("constructions.schedule"),
        "periodic.band_structure.calls": calls("periodic.band_structure"),
        "periodic.band_structure.s": seconds("periodic.band_structure"),
        "periodic.band_structure.failed": float(
            (sel("periodic.band_structure") & (cols["failed"] == 1)).sum()),
        "polynomial.evals": float(tr.counter("polynomial.evals")[0]),
        "polynomial.bisect.calls": float(tr.counter("polynomial.bisect")[0]),
        "intervals.ops.calls": calls("intervals.ops"),
        "intervals.ops.s": seconds("intervals.ops"),
    }
    out["transfer.scan.steps_per_s"] = ratio(out["transfer.scan.steps"],
                                             out["transfer.scan.s"])
    # Weyl solves per density point; 1.0 means no wasted branch
    out["density.branch_ratio"] = ratio(out["density.weyl.calls"],
                                        out["density.points"])
    # transfer steps multiplied per step of window checked; >> 1 while the
    # window check is quadratic
    out["diagnostics.verify.step_ratio"] = ratio(
        work("transfer.product", _under(cols, names, "diagnostics.verify")),
        work("diagnostics.verify"))
    # scanner steps fed per (horizon x gap centers); >> 1 while the empirical
    # schedule search replays the prefix at every step
    out["constructions.replay_ratio"] = ratio(
        work("transfer.scan", _under(cols, names, "constructions.schedule")),
        work("constructions.schedule"))
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.self_s"] = float(selfs[sel(f"cli.{cmd}")].sum())
    return out


def per_layer(untraced, traced) -> dict[str, float]:
    """PER_LAYER metrics of a run from its untraced pipelines and its traced
    ones, given as (outcomes, layer_metrics): medians over the traced
    pipelines, and trace_overhead = median traced / median untraced time in
    CLI calls."""
    layers = [metrics for _, metrics in traced]
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out["trace_overhead"] = (
        statistics.median(sum(o.seconds for o in outcomes) for outcomes, _ in traced)
        / statistics.median(sum(o.seconds for o in outcomes) for outcomes in untraced))
    return {name: out[name] for name in PER_LAYER}
