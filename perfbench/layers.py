"""Per-layer metrics: traced self times plus the program's own work counters.

:class:`Recorder` owns a :class:`~perfbench.tracer.LayerTracer` and reads
the public result objects its wrapped entry points return — ``SolveStats``
from every ``design()``, the sweep's pruning counts, the formulation's
model size — so layer times sit next to the counters that explain them.
:func:`layer_metrics` turns one recorder snapshot into the ``per_layer``
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

from collections import Counter

from perfbench.check import bound_violation
from perfbench.tracer import LayerTracer

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    "wrapper.calls": "count",
    "wrapper.self_s": "s",
    "core.formulation.calls": "count",
    "core.formulation.self_s": "s",
    "core.formulation.rows": "count",
    "core.formulation.cols": "count",
    "ilp.model.self_s": "s",
    "ilp.presolve_root.calls": "count",
    "ilp.presolve_root.self_s": "s",
    "ilp.presolve_root.cols_removed": "count",
    "ilp.presolve_root.rows_removed": "count",
    "ilp.presolve.calls": "count",
    "ilp.presolve.self_s": "s",
    "ilp.presolve.ms_per_call": "ms",
    "ilp.presolve.fixings": "count",
    "ilp.presolve.pruned_share": "ratio",
    "ilp.simplex.calls": "count",
    "ilp.simplex.self_s": "s",
    "ilp.simplex.lp_iterations": "count",
    "ilp.simplex.ms_per_iter": "ms",
    "ilp.simplex.warm_share": "ratio",
    "ilp.simplex.fallbacks": "count",
    "ilp.lp.cold_calls": "count",
    "ilp.lp.self_s": "s",
    "ilp.cuts.self_s": "s",
    "ilp.cuts.added": "count",
    "ilp.cuts.rounds": "count",
    "ilp.cuts.clique": "count",
    "ilp.cuts.cover": "count",
    "ilp.branch_and_bound.calls": "count",
    "ilp.branch_and_bound.self_s": "s",
    "ilp.branch_and_bound.nodes": "count",
    "ilp.branch_and_bound.nodes_per_s": "1/s",
    "ilp.branch_and_bound.incumbent_updates": "count",
    "ilp.branch_and_bound.bound_violations": "count",
    "core.designer.calls": "count",
    "core.designer.self_s": "s",
    "core.designer.unattributed_share": "ratio",
    "core.designer.sweep_pruned_share": "ratio",
    "core.baselines.calls": "count",
    "core.baselines.self_s": "s",
    "runtime.cache.hits": "count",
    "runtime.cache.misses": "count",
    "runtime.cache.hit_ratio": "ratio",
    "service.wait_ms": "ms",
    "service.run_ms_hit": "ms",
    "service.run_ms_miss": "ms",
    "service.http_ms": "ms",
    "service.dedupe_joins": "count",
    "loadgen.late_ms": "ms",
    "trace.overhead": "ratio",
}

#: SolveStats fields summed over every traced ``design()`` call.
_STATS_FIELDS = (
    "nodes", "lp_solves", "lp_iterations", "incumbent_updates", "presolve_fixings",
    "presolve_pruned", "cuts", "cut_rounds", "clique_cuts", "cover_cuts",
    "root_cols_removed", "root_rows_removed", "warm_lp_solves", "warm_lp_fallbacks",
)

#: Layers whose entry points must record at least one call on a workload:
#: the ones the layer table expects to do that workload's work.
EXPECTED_LAYERS = {
    "sweep": ("wrapper", "core.formulation", "ilp.model", "ilp.presolve_root",
              "ilp.simplex", "ilp.branch_and_bound", "core.designer"),
    "exact": ("core.formulation", "ilp.model", "ilp.presolve", "ilp.simplex",
              "ilp.lp", "ilp.cuts", "ilp.branch_and_bound", "core.designer"),
    "anytime": ("core.formulation", "ilp.presolve", "ilp.simplex",
                "ilp.branch_and_bound", "core.designer"),
    "service": ("wrapper", "core.formulation", "ilp.model", "ilp.branch_and_bound",
                "core.designer"),
}


class Recorder:
    """A tracer plus the work counters read off traced return values."""

    def __init__(self):
        self.tracer = LayerTracer(observer=self._observe)
        self.reset()

    def reset(self) -> None:
        self.tracer.reset()
        self.entry_calls: Counter = Counter()
        self.stats: Counter = Counter()
        self.bound_violations = 0
        self.sweep_evaluated = 0
        self.sweep_pruned = 0
        self.rows = 0
        self.cols = 0

    def _observe(self, layer: str, qualname: str, result) -> None:
        self.entry_calls[qualname] += 1
        if qualname.endswith(".design") and hasattr(result, "stats"):
            for name in _STATS_FIELDS:
                self.stats[name] += getattr(result.stats, name)
            self.bound_violations += bound_violation(result.stats.best_bound, result.makespan)
        elif qualname.endswith(".design_best_architecture"):
            self.sweep_evaluated += result.evaluated
            self.sweep_pruned += result.pruned
        elif layer == "core.formulation":
            self.rows += result.model.num_constraints
            self.cols += result.model.num_vars

    def snapshot(self) -> dict:
        """JSON-ready state (also how a traced server hands its numbers over)."""
        return {
            "layers": {layer: vars(t).copy() for layer, t in self.tracer.totals.items()},
            "entry_calls": dict(self.entry_calls),
            "stats": dict(self.stats),
            "bound_violations": self.bound_violations,
            "sweep_evaluated": self.sweep_evaluated,
            "sweep_pruned": self.sweep_pruned,
            "rows": self.rows,
            "cols": self.cols,
        }


def missing_layers(snapshot: dict, workload: str) -> list[str]:
    """Expected layers whose entry points recorded no call."""
    return [
        layer for layer in EXPECTED_LAYERS[workload]
        if snapshot["layers"][layer]["calls"] == 0
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict, passes: int, extra: dict) -> dict[str, float]:
    """Per-pass layer metrics from a recorder snapshot (plus service extras)."""
    layers, stats, calls = snap["layers"], snap["stats"], snap["entry_calls"]

    def per_pass(value: float) -> float:
        return value / passes

    def self_s(layer: str) -> float:
        return per_pass(layers[layer]["self_s"])

    def n_calls(layer: str) -> float:
        return per_pass(layers[layer]["calls"])

    cold = sum(v for k, v in calls.items() if k.endswith(".solve_matrix_lp"))
    designer = layers["core.designer"]
    bnb_total = layers["ilp.branch_and_bound"]["total_s"]
    values = {
        "wrapper.calls": n_calls("wrapper"),
        "wrapper.self_s": self_s("wrapper"),
        "core.formulation.calls": n_calls("core.formulation"),
        "core.formulation.self_s": self_s("core.formulation"),
        "core.formulation.rows": per_pass(snap["rows"]),
        "core.formulation.cols": per_pass(snap["cols"]),
        "ilp.model.self_s": self_s("ilp.model"),
        "ilp.presolve_root.calls": n_calls("ilp.presolve_root"),
        "ilp.presolve_root.self_s": self_s("ilp.presolve_root"),
        "ilp.presolve_root.cols_removed": per_pass(stats.get("root_cols_removed", 0)),
        "ilp.presolve_root.rows_removed": per_pass(stats.get("root_rows_removed", 0)),
        "ilp.presolve.calls": n_calls("ilp.presolve"),
        "ilp.presolve.self_s": self_s("ilp.presolve"),
        "ilp.presolve.ms_per_call": 1000 * _ratio(
            layers["ilp.presolve"]["self_s"], layers["ilp.presolve"]["calls"]),
        "ilp.presolve.fixings": per_pass(stats.get("presolve_fixings", 0)),
        "ilp.presolve.pruned_share": _ratio(
            stats.get("presolve_pruned", 0),
            stats.get("presolve_pruned", 0) + stats.get("nodes", 0)),
        "ilp.simplex.calls": n_calls("ilp.simplex"),
        "ilp.simplex.self_s": self_s("ilp.simplex"),
        "ilp.simplex.lp_iterations": per_pass(stats.get("lp_iterations", 0)),
        "ilp.simplex.ms_per_iter": 1000 * _ratio(
            layers["ilp.simplex"]["self_s"], stats.get("lp_iterations", 0)),
        "ilp.simplex.warm_share": _ratio(
            stats.get("warm_lp_solves", 0), stats.get("lp_solves", 0)),
        "ilp.simplex.fallbacks": per_pass(stats.get("warm_lp_fallbacks", 0)),
        "ilp.lp.cold_calls": per_pass(cold),
        "ilp.lp.self_s": self_s("ilp.lp"),
        "ilp.cuts.self_s": self_s("ilp.cuts"),
        "ilp.cuts.added": per_pass(stats.get("cuts", 0)),
        "ilp.cuts.rounds": per_pass(stats.get("cut_rounds", 0)),
        "ilp.cuts.clique": per_pass(stats.get("clique_cuts", 0)),
        "ilp.cuts.cover": per_pass(stats.get("cover_cuts", 0)),
        "ilp.branch_and_bound.calls": n_calls("ilp.branch_and_bound"),
        "ilp.branch_and_bound.self_s": self_s("ilp.branch_and_bound"),
        "ilp.branch_and_bound.nodes": per_pass(stats.get("nodes", 0)),
        "ilp.branch_and_bound.nodes_per_s": _ratio(stats.get("nodes", 0), bnb_total),
        "ilp.branch_and_bound.incumbent_updates": per_pass(stats.get("incumbent_updates", 0)),
        "ilp.branch_and_bound.bound_violations": per_pass(snap["bound_violations"]),
        "core.designer.calls": n_calls("core.designer"),
        "core.designer.self_s": self_s("core.designer"),
        "core.designer.unattributed_share": _ratio(designer["self_s"], designer["total_s"]),
        "core.designer.sweep_pruned_share": _ratio(
            snap["sweep_pruned"], snap["sweep_pruned"] + snap["sweep_evaluated"]),
        "core.baselines.calls": n_calls("core.baselines"),
        "core.baselines.self_s": self_s("core.baselines"),
    }
    for name in PER_LAYER_UNITS:
        values.setdefault(name, extra.get(name, 0.0))
    return values
