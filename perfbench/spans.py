"""Spans around the calls into each rfuncds layer, recorded from outside.

The tracer replaces module attributes with timing wrappers, at the names
the callers look up: ``cli`` and ``ds`` import ``grid_eval``,
``marching_squares``, ``sobol``, the ``emit_*`` functions and others by
name, ``contour`` calls its own ``marching_squares`` and ``eval_arrays``,
and ``reactor.cqa_vector`` calls the module-level ``simulate``.  A name
that no longer exists is skipped and listed in ``Tracer.dropped``, so a
renamed function drops its layer from the trace instead of failing the run.

Spans stay in memory until ``write`` saves them at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

LAYERS = ("qmc", "reactor", "polyfit", "expr", "exprtext", "geometry", "ds",
          "contour", "emit", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index of the enclosing span, -1 for a unit root
    unit: int       # workload-iteration id


def _count_simulate(counts, args, result):
    counts["reactor.model_runs"] += 1
    counts["reactor.steps"] += result.steps
    counts["reactor.nfev"] += result.nfev
    counts["reactor.worst_defect"] = max(counts["reactor.worst_defect"],
                                         float(result.error_estimate))


def _count_marching(counts, args, result):
    nx, ny = args[0].values.shape
    counts["contour.cells"] += (nx - 1) * (ny - 1)
    counts["contour.polyline_points"] += sum(len(p.points) for p in result.polylines)


def _count_grid(counts, args, result):
    counts["contour.grid_nodes"] += result.values.size


def _count_eval(counts, args, result):
    counts["expr.eval_points"] += result.size


def _count_bytes(counts, args, result):
    counts["emit.bytes"] += os.path.getsize(args[0])


# (module, attribute looked up by callers, span name, counter)
WRAPS = (
    ("rfuncds.cli", "main", "cli.main", None),
    ("rfuncds.cli", "testcase", "geometry.testcase", None),
    ("rfuncds.cli", "compose", "expr.compose", None),
    ("rfuncds.cli", "eval_expr", "expr.eval_expr", None),
    ("rfuncds.cli", "serialize", "exprtext.serialize", None),
    ("rfuncds.cli", "grid_eval", "contour.grid_eval", _count_grid),
    ("rfuncds.cli", "marching_squares", "contour.marching_squares", _count_marching),
    ("rfuncds.cli", "slice_contours_3d", "contour.slice_3d", None),
    ("rfuncds.cli", "emit_svg", "emit.svg", _count_bytes),
    ("rfuncds.cli", "emit_field_csv", "emit.field_csv", _count_bytes),
    ("rfuncds.cli", "emit_contours_csv", "emit.contours_csv", _count_bytes),
    ("rfuncds.ds", "identify", "ds.identify", None),
    ("rfuncds.ds", "save_report", "ds.save_report", None),
    ("rfuncds.ds", "load_report", "ds.load_report", None),
    ("rfuncds.ds", "membership", "ds.membership", None),
    ("rfuncds.ds", "sobol", "qmc.sobol", None),
    ("rfuncds.ds", "scale", "qmc.scale", None),
    ("rfuncds.ds", "fit_least_squares", "polyfit.fit", None),
    ("rfuncds.ds", "r_squared", "polyfit.r_squared", None),
    ("rfuncds.ds", "to_expr", "polyfit.to_expr", None),
    ("rfuncds.ds", "compose", "expr.compose", None),
    ("rfuncds.ds", "eval_arrays", "expr.eval_arrays", _count_eval),
    ("rfuncds.ds", "sign_class", "expr.sign_class", None),
    ("rfuncds.ds", "grid_eval", "contour.grid_eval", _count_grid),
    ("rfuncds.ds", "marching_squares", "contour.marching_squares", _count_marching),
    ("rfuncds.contour", "eval_arrays", "expr.eval_arrays", _count_eval),
    ("rfuncds.contour", "marching_squares", "contour.marching_squares", _count_marching),
    ("rfuncds.expr", "eval_arrays", "expr.eval_arrays", _count_eval),
    ("rfuncds.exprtext", "to_infix", "exprtext.to_infix", None),
    ("rfuncds.exprtext", "to_tree_text", "exprtext.to_tree_text", None),
    ("rfuncds.exprtext", "parse_tree_text", "exprtext.parse_tree_text", None),
    ("rfuncds.reactor", "simulate", "reactor.simulate", _count_simulate),
)


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.dropped: list[str] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._unit = 0

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self._unit))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._open.pop()

    def unit(self, fn, *args):
        """Run one workload iteration as a root span; returns fn's result."""
        self._unit += 1
        idx = self._enter("bench.unit")
        try:
            return fn(*args)
        finally:
            self._exit(idx)

    def install(self) -> None:
        for module_name, attr, span_name, counter in WRAPS:
            module = importlib.import_module(module_name)
            target = getattr(module, attr, None)
            if not callable(target):
                self.dropped.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(target, span_name, counter))
            self._patched.append((module, attr, target))

    def uninstall(self) -> None:
        for module, attr, target in reversed(self._patched):
            setattr(module, attr, target)
        self._patched.clear()

    def _wrap(self, target, span_name, counter):
        @functools.wraps(target)
        def traced(*args, **kwargs):
            idx = self._enter(span_name)
            try:
                result = target(*args, **kwargs)
            finally:
                self._exit(idx)
            if counter is not None:
                try:
                    counter(self.counts, args, result)
                except (AttributeError, TypeError, ValueError, IndexError, OSError):
                    pass   # a changed signature loses the counter, not the run
            return result
        return traced

    # ------------------------------------------------------------------
    # summaries

    def inclusive(self, *names: str) -> float:
        """Time inside spans with these names, nested ones counted once."""
        wanted = set(names)
        total = 0.0
        for span in self.spans:
            if span.name in wanted and not self._inside(span, wanted):
                total += span.end - span.start
        return total

    def _inside(self, span: Span, names: set[str]) -> bool:
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the child spans' time."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: defaultdict[str, float] = defaultdict(float)
        for span, inner in zip(self.spans, child):
            out[span.name] += span.end - span.start - inner
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"dropped": self.dropped,
                       "counts": dict(self.counts),
                       "spans": [asdict(s) for s in self.spans]}, fh)
