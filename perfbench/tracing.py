"""Spans recorded from outside the package, around calls into each layer.

The package binds names with ``from .x import f``, so replacing ``f`` only in
its defining module would miss calls made through ``pipeline``, ``runner`` or
``cli``.  ``Tracer.install`` therefore wraps every public function of each
layer module in every ``affinevis`` module namespace that binds it, and
``uninstall`` puts the originals back.  Spans stay in memory; the caller
writes them out when the run ends.  ``linalg2`` and ``errors`` are not
wrapped, so their time counts in their callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "symbolic",
    "regularity",
    "geometry",
    "visibility",
    "dimension",
    "tangent",
    "scenarios",
    "pipeline",
    "runner",
    "report",
    "cli",
)


# Work counts taken at the span boundary: span name -> {counter: fn(args, result)}.
# ``args`` is the bound argument dict of the call.
COUNTERS = {
    "symbolic.attractor_cloud": {"attractor_cloud.points": lambda a, r: len(r)},
    "visibility.rasterize": {
        "rasterize.points_in": lambda a, r: len(a["cloud"]),
        "rasterize.cells_out": lambda a, r: len(r),
    },
    "visibility.visible_sweep": {
        "visible_sweep.cells_in": lambda a, r: len(a["grid"]),
        "visible_sweep.cells_out": lambda a, r: len(r),
    },
    "visibility.visible_exact": {
        "visible_exact.points_in": lambda a, r: len(a["cloud"]),
        "visible_exact.points_out": lambda a, r: len(r),
    },
    "dimension.box_count": {
        "box_count.points_in": lambda a, r: len(a["data"]),
        "box_count.cells_finest": lambda a, r: r[-1],
    },
    "geometry.direction_scan": {
        "direction_scan.exceptional": lambda a, r: sum(v.exceptional for v in r)
    },
    "regularity.orientation_cover": {"orientation_cover.intervals": lambda a, r: len(r)},
    "report.atomic_write_bytes": {"report.bytes_written": lambda a, r: len(a["data"])},
}


class Tracer:
    """Span recorder.  A span is ``[name, parent_index, start, end]``;
    ``parent_index`` is -1 for a span opened outside any other span."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name)
        sig = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, parent, time.perf_counter(), 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = time.perf_counter()
            if counters:
                bound = sig.bind(*args, **kwargs).arguments
                for counter, count in counters.items():
                    self.counts[counter] += count(bound, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, in every
        ``affinevis`` module that binds them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"affinevis.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        modules = [
            m
            for key, m in sys.modules.items()
            if key == "affinevis" or key.startswith("affinevis.")
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: (total self time, number of spans).  A span's self
    time is its duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for (name, _, start, end), inner in zip(spans, child):
        entry = out[name]
        entry[0] += (end - start) - inner
        entry[1] += 1
    return {name: (s, n) for name, (s, n) in out.items()}


# Function-level metrics reported beside the per-layer totals.
SELF_TIME_FUNCTIONS = (
    "symbolic.attractor_cloud",
    "visibility.rasterize",
    "visibility.visible_sweep",
    "visibility.visible_exact",
    "visibility.visible_bruteforce",
    "dimension.box_count",
    "dimension.assouad_estimate",
    "geometry.projection_condition_check",
    "regularity.orientation_cover",
    "regularity.invariant_cone_search",
    "regularity.domination_report",
    "regularity.distortion_check",
    "regularity.porosity_gap_levels",
    "report.write_csv",
    "report.svg_cells",
    "report.write_report",
)
CALL_COUNT_FUNCTIONS = (
    "geometry.projection_condition_check",
    "regularity.orientation_cover",
    "regularity.invariant_cone_search",
    "regularity.domination_report",
    "regularity.distortion_check",
    "regularity.porosity_gap_levels",
)
COUNT_NAMES = tuple(c for counters in COUNTERS.values() for c in counters)


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer and function-level metrics of one traced pass."""
    per_name = self_times(spans)
    out: dict[str, float] = {}
    for layer in LAYERS:
        own = [v for k, v in per_name.items() if k.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(s for s, _ in own)
        out[f"{layer}.calls"] = sum(n for _, n in own)
    for name in SELF_TIME_FUNCTIONS:
        out[f"{name.split('.', 1)[1]}.self_s"] = per_name.get(name, (0.0, 0))[0]
    for name in CALL_COUNT_FUNCTIONS:
        out[f"{name.split('.', 1)[1]}.calls"] = per_name.get(name, (0.0, 0))[1]
    for name in COUNT_NAMES:
        out[name] = counts.get(name, 0)
    points = counts.get("rasterize.points_in", 0)
    out["rasterize.dedup_ratio"] = counts.get("rasterize.cells_out", 0) / points if points else 0.0
    return out


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("dedup_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"
