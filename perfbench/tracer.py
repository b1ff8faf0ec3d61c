"""Outside-in layer tracing: wrap each layer's public entry point.

Nothing under ``src/`` knows about this module. :class:`LayerTracer`
rebinds a fixed list of entry points (module attributes and class
methods, each *as bound where its caller looks it up*) to thin wrappers
that push a span on a per-thread stack. When a span closes, its duration
minus the time its child spans covered is the layer's self time, so the
self times of all layers partition the traced wall without overlap.

Spans stay in memory; :meth:`LayerTracer.write` dumps them (and the
per-layer totals) once, at the end of a run. ``install``/``uninstall``
toggle the rebinding so one process can alternate traced and untraced
passes and report the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass

#: (layer, module, attribute path) for every timed entry point. A dotted
#: attribute path names a method on a class in that module. Each binding
#: is the one the calling layer resolves at call time, so rebinding it
#: routes every call of that layer through the tracer.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("wrapper", "repro.tam.timing", "wrapper_test_time"),
    ("core.formulation", "repro.core.designer", "build_assignment_ilp"),
    ("ilp.model", "repro.ilp.model", "Model.solve"),
    ("ilp.presolve_root", "repro.ilp.branch_and_bound", "presolve_root"),
    ("ilp.presolve", "repro.ilp.branch_and_bound", "propagate_bounds"),
    ("ilp.presolve", "repro.ilp.branch_and_bound", "reduced_cost_tighten"),
    ("ilp.simplex", "repro.ilp.simplex", "RevisedSimplex.solve"),
    ("ilp.lp", "repro.ilp.branch_and_bound", "solve_matrix_lp"),
    ("ilp.lp", "repro.ilp.lp", "LpWorkspace.__init__"),
    ("ilp.cuts", "repro.ilp.cuts", "generate_cuts"),
    ("ilp.cuts", "repro.ilp.conflict", "ConflictGraph.from_matrix_form"),
    ("ilp.branch_and_bound", "repro.ilp.branch_and_bound", "BranchAndBoundSolver.solve"),
    ("core.designer", "repro.core.designer", "design"),
    ("core.designer", "repro.core.designer", "design_best_architecture"),
    ("core.designer", "repro.core.request", "design"),
    ("core.designer", "repro.api", "design"),
    ("core.designer", "repro.api", "design_best_architecture"),
    ("core.baselines", "repro.core.baselines", "lpt_assignment"),
    ("core.baselines", "repro.core.baselines", "simulated_annealing"),
)

#: Every layer the tracer can time, in report order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("layer", "start", "child_s", "parent")

    def __init__(self, layer: str, start: float, parent: str | None):
        self.layer = layer
        self.start = start
        self.child_s = 0.0
        self.parent = parent


class LayerTracer:
    """Per-thread span stacks over the layers in :data:`ENTRY_POINTS`."""

    def __init__(self, observer=None):
        #: ``observer(layer, qualname, result)`` sees every traced return
        #: value, so the benchmark can read work counters off results.
        self.observer = observer
        self.totals = {layer: LayerTotals() for layer in LAYERS}
        self.spans: list[tuple[str, str | None, float, float, int]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- binding
    def install(self) -> None:
        """Rebind every entry point; fails loudly if one has moved."""
        if self._saved:
            return
        for layer, module_name, path in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
            if raw is None or not callable(getattr(raw, "__func__", raw)):
                raise RuntimeError(f"entry point {module_name}.{path} ({layer}) is gone")
            self._saved.append((owner, name, raw))
            setattr(owner, name, self._wrap(layer, f"{module_name}.{path}", raw))

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        self._saved = []

    def _wrap(self, layer: str, qualname: str, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(layer, qualname, raw.__func__))
        tracer = self

        @functools.wraps(raw)
        def traced(*args, **kwargs):
            frame = tracer._enter(layer)
            try:
                result = raw(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if tracer.observer is not None:
                tracer.observer(layer, qualname, result)
            return result

        return traced

    # ---------------------------------------------------------------- spans
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str) -> _Frame:
        stack = self._stack()
        frame = _Frame(layer, time.perf_counter(), stack[-1].layer if stack else None)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child_s += duration
        with self._lock:
            totals = self.totals[frame.layer]
            totals.calls += 1
            totals.self_s += duration - frame.child_s
            # A re-entrant call (design inside design_best_architecture)
            # already counts inside its outer span's total.
            if frame.parent != frame.layer:
                totals.total_s += duration
            self.spans.append(
                (frame.layer, frame.parent, frame.start, end, threading.get_ident())
            )

    def reset(self) -> None:
        with self._lock:
            self.totals = {layer: LayerTotals() for layer in LAYERS}
            self.spans = []

    def write(self, path) -> None:
        """Dump per-layer totals and every span (seconds, perf_counter)."""
        payload = {
            "layers": {
                layer: vars(totals) for layer, totals in self.totals.items()
            },
            "spans_fields": ["layer", "parent", "start", "end", "thread"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
