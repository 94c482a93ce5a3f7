"""Span tracing from outside the package.

The package imports by ``from ... import``, so each call site looks a
function up in its own module.  ``Tracer.install`` therefore replaces
every binding under the name the calling module uses (for example
``risknet.baselines.total_directional_force``), records one span per
call in memory, and restores the originals on ``uninstall``.  Self time
is a span's duration minus the durations of its direct children, so the
self times of a command's subtree add up to the command's wall time.
"""

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# A counter runs after the call returns and is timed as a ``trace.count``
# child of the caller, so counting never inflates a layer's self time.
Counter = Callable[[tuple, dict, object], float]


def _edges(args, kwargs, result) -> int:
    return len(result.edges)


def _rows(scenario) -> int:
    return sum(len(states) for states in scenario.frames.values())


def _pairs(args, kwargs, result) -> int:
    # star graph around the ego: one edge per neighbour pair
    return len(args[1].edges)


def _cells(grid) -> int:
    return grid.width * grid.height


def _raster_cells(args, kwargs, result) -> int:
    return _cells(args[3])


def _ghost_raster(args, kwargs, result) -> Tuple[int, int]:
    predictions, ego = args[0], args[1]
    ghosts = sum(len(pred.modes) for aid, pred in predictions.items()
                 if aid != ego.agent_id)
    return _cells(args[3]), ghosts


def _tape_nodes(args, kwargs, result) -> int:
    """Autodiff nodes reachable from a window loss through _parents; 0
    for a forward pass recorded without a tape."""
    if not result.requires_grad:
        return 0
    seen = {id(result)}
    stack = [result]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _forward_name(args, kwargs) -> str:
    autodiff = sys.modules["risknet.predictor.autodiff"]
    return ("predictor.forward" if autodiff._grad_enabled
            else "predictor.forward_nograd")


# (calling module, bound name, span name or namer, counter)
BINDINGS = [
    ("risknet.cli", "load_tracks", "scene.load_tracks",
     lambda a, k, r: _rows(r)),
    ("risknet.cli", "export_tracks", "scene.export_tracks",
     lambda a, k, r: _rows(a[0])),
    ("risknet.cli", "make_archetype", "scene.make_archetype", None),
    ("risknet.cli", "build_graph", "scene.build_graph", _edges),
    ("risknet.baselines", "build_graph", "scene.build_graph", _edges),
    ("risknet.predictor.train", "build_graph", "scene.build_graph", _edges),
    ("risknet.cli", "total_directional_force",
     "field.total_directional_force", _pairs),
    ("risknet.baselines", "total_directional_force",
     "field.total_directional_force", _pairs),
    ("risknet.cli", "rasterize", "field.rasterize", _raster_cells),
    ("risknet.cli", "write_raster", "field.write_raster", None),
    ("risknet.prob", "directional_force", "field.directional_force", None),
    ("risknet.cli", "evaluate_all", "baselines.evaluate_all",
     lambda a, k, r: len(r)),
    ("risknet.cli", "write_comparison", "baselines.write_comparison", None),
    ("risknet.cli", "corpus_windows", "predictor.corpus_windows",
     lambda a, k, r: len(r)),
    ("risknet.cli", "run_training", "predictor.train", None),
    ("risknet.predictor.train", "_window_loss", _forward_name, _tape_nodes),
    ("risknet.predictor.autodiff", "backward", "predictor.backward", None),
    ("risknet.cli", "predict_for_agent", "predictor.predict_for_agent",
     None),
    ("risknet.predictor.train", "encode", "predictor.encode", None),
    ("risknet.predictor.train", "decode", "predictor.decode", None),
    ("risknet.cli", "save_model", "predictor.store.save_model", None),
    ("risknet.cli", "load_model", "predictor.store.load_model", None),
    ("risknet.cli", "probabilistic_raster", "prob.probabilistic_raster",
     _ghost_raster),
]


class Tracer:
    """Records spans as ``[name, start, end, parent index, count]``."""

    def __init__(self):
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter: Optional[Counter]):
        def traced(*args, **kwargs):
            rec = self._open(name if isinstance(name, str)
                             else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                tick = self._open("trace.count")
                try:
                    rec[4] = counter(args, kwargs, result)
                finally:
                    self._close(tick)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, counter))
            self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def command(self, name: str):
        """Open a top-level span around one CLI call; returns a closer."""
        rec = self._open(name)
        return lambda: self._close(rec)

    def self_times(self) -> List[float]:
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs


class Summary:
    """Per-span-name totals: calls, inclusive and self seconds, counts.

    Inclusive time leaves out the tracer's own counting.  ``under_total``
    keys it by (name, parent name) for layers whose cost depends on the
    caller, such as encode inside a training window versus inside a
    forecast.  ``unaccounted`` is the largest relative gap, over
    top-level spans, between wall time and the self times of its subtree.
    """

    def __init__(self, tracer: Tracer):
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, list] = defaultdict(list)
        self.under_total: Dict[Tuple[str, str], float] = defaultdict(float)
        spans = tracer.spans
        selfs = tracer.self_times()
        # children follow their parent in the list, so one backward sweep
        # totals every subtree: all self time, and the counting within it
        subtree = [0.0] * len(spans)
        counting = [0.0] * len(spans)
        for i in range(len(spans) - 1, -1, -1):
            name, _, _, parent, _ = spans[i]
            subtree[i] += selfs[i]
            if name == "trace.count":
                counting[i] += selfs[i]
            if parent >= 0:
                subtree[parent] += subtree[i]
                counting[parent] += counting[i]
        self.unaccounted = 0.0
        for i, (name, start, end, parent, count) in enumerate(spans):
            inclusive = end - start - counting[i]
            self.calls[name] += 1
            self.total[name] += inclusive
            self.self_s[name] += selfs[i]
            self.count[name].append(count)
            pname = spans[parent][0] if parent >= 0 else ""
            self.under_total[(name, pname)] += inclusive
            if parent < 0 and end > start:
                self.unaccounted = max(
                    self.unaccounted,
                    abs(subtree[i] - (end - start)) / (end - start))

    def counted(self, name: str, index: Optional[int] = None) -> float:
        values = self.count.get(name, [])
        if index is not None:
            values = [v[index] for v in values]
        return float(sum(values))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, better) in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("scene.load_tracks.us_per_row", "us", "lower"),
    ("scene.load_tracks.rows", "count", "higher"),
    ("scene.export_tracks.us_per_row", "us", "lower"),
    ("scene.make_archetype.ms", "ms", "lower"),
    ("scene.build_graph.us_per_call", "us", "lower"),
    ("scene.build_graph.calls", "count", "lower"),
    ("scene.neighbors_per_graph", "count", "higher"),
    ("field.total_directional_force.us_per_call", "us", "lower"),
    ("field.pairs", "count", "lower"),
    ("field.ns_per_pair", "ns", "lower"),
    ("field.rasterize.us_per_cell", "us", "lower"),
    ("field.rasterize.cells", "count", "higher"),
    ("field.write_raster.ms", "ms", "lower"),
    ("baselines.evaluate_all.self_us_per_frame", "us", "lower"),
    ("baselines.write_comparison.ms", "ms", "lower"),
    ("predictor.corpus_windows.ms_per_window", "ms", "lower"),
    ("predictor.windows", "count", "higher"),
    ("predictor.forward_ms_per_window", "ms", "lower"),
    ("predictor.backward_ms_per_window", "ms", "lower"),
    ("predictor.update_ms_per_epoch", "ms", "lower"),
    ("predictor.tape_nodes_per_window", "count", "lower"),
    ("predictor.predict_for_agent.ms_per_agent", "ms", "lower"),
    ("predictor.encode.ms_per_agent", "ms", "lower"),
    ("predictor.decode.ms_per_agent", "ms", "lower"),
    ("predictor.store.save_model.ms", "ms", "lower"),
    ("predictor.store.load_model.ms", "ms", "lower"),
    ("prob.probabilistic_raster.us_per_cell", "us", "lower"),
    ("prob.ghosts", "count", "higher"),
]

# counters that must repeat exactly from one traced pass to the next
EXACT_COUNTS = ("field.pairs", "scene.build_graph.calls",
                "field.rasterize.cells", "predictor.windows", "prob.ghosts",
                "predictor.tape_nodes_per_window")


def layer_metrics(s: Summary) -> Dict[str, float]:
    """Per-layer figures from one traced pass.  Inclusive times are used
    where a layer's calls contain other layers' spans only incidentally
    (windowing, forecasting, ghost rasters); ``self`` where they do not."""
    rows = s.counted("scene.load_tracks")
    pairs = s.counted("field.total_directional_force")
    cells = s.counted("field.rasterize")
    ghost_cells = s.counted("prob.probabilistic_raster", 0)
    windows = s.counted("predictor.corpus_windows")
    fwd = "predictor.forward"
    graphs = s.calls["scene.build_graph"]
    predicts = s.calls["predictor.predict_for_agent"]
    under_predict = "predictor.predict_for_agent"
    epochs = s.calls["predictor.backward"]
    return {
        "scene.load_tracks.us_per_row":
            _ratio(s.total["scene.load_tracks"], rows) * 1e6,
        "scene.load_tracks.rows": rows,
        "scene.export_tracks.us_per_row":
            _ratio(s.total["scene.export_tracks"],
                   s.counted("scene.export_tracks")) * 1e6,
        "scene.make_archetype.ms":
            _ratio(s.total["scene.make_archetype"],
                   s.calls["scene.make_archetype"]) * 1e3,
        "scene.build_graph.us_per_call":
            _ratio(s.total["scene.build_graph"], graphs) * 1e6,
        "scene.build_graph.calls": graphs,
        "scene.neighbors_per_graph":
            _ratio(s.counted("scene.build_graph"), graphs),
        "field.total_directional_force.us_per_call":
            _ratio(s.total["field.total_directional_force"],
                   s.calls["field.total_directional_force"]) * 1e6,
        "field.pairs": pairs,
        "field.ns_per_pair":
            _ratio(s.total["field.total_directional_force"], pairs) * 1e9,
        "field.rasterize.us_per_cell":
            _ratio(s.total["field.rasterize"], cells) * 1e6,
        "field.rasterize.cells": cells,
        "field.write_raster.ms":
            _ratio(s.total["field.write_raster"],
                   s.calls["field.write_raster"]) * 1e3,
        "baselines.evaluate_all.self_us_per_frame":
            _ratio(s.self_s["baselines.evaluate_all"],
                   s.counted("baselines.evaluate_all")) * 1e6,
        "baselines.write_comparison.ms":
            _ratio(s.total["baselines.write_comparison"],
                   s.calls["baselines.write_comparison"]) * 1e3,
        "predictor.corpus_windows.ms_per_window":
            _ratio(s.total["predictor.corpus_windows"], windows) * 1e3,
        "predictor.windows": windows,
        "predictor.forward_ms_per_window":
            _ratio(s.total[fwd], s.calls[fwd]) * 1e3,
        "predictor.backward_ms_per_window":
            _ratio(s.total["predictor.backward"], s.calls[fwd]) * 1e3,
        "predictor.update_ms_per_epoch":
            _ratio(s.self_s["predictor.train"], epochs) * 1e3,
        "predictor.tape_nodes_per_window":
            _ratio(s.counted(fwd), s.calls[fwd]),
        "predictor.predict_for_agent.ms_per_agent":
            _ratio(s.total[under_predict], predicts) * 1e3,
        "predictor.encode.ms_per_agent":
            _ratio(s.under_total[("predictor.encode", under_predict)],
                   predicts) * 1e3,
        "predictor.decode.ms_per_agent":
            _ratio(s.under_total[("predictor.decode", under_predict)],
                   predicts) * 1e3,
        "predictor.store.save_model.ms":
            _ratio(s.total["predictor.store.save_model"],
                   s.calls["predictor.store.save_model"]) * 1e3,
        "predictor.store.load_model.ms":
            _ratio(s.total["predictor.store.load_model"],
                   s.calls["predictor.store.load_model"]) * 1e3,
        "prob.probabilistic_raster.us_per_cell":
            _ratio(s.total["prob.probabilistic_raster"], ghost_cells) * 1e6,
        "prob.ghosts": s.counted("prob.probabilistic_raster", 1),
    }
