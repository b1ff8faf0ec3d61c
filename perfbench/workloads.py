"""The batch workloads: ``sweep``, ``exact`` and ``anytime``.

Each workload builds its inputs from the seed once (``setup``), then runs
one fixed set of operations per *pass*. Every pass starts from the same
state: the process-global wrapper/timing memos are emptied and every
solve bypasses the solution cache. Every answer is re-checked by
:mod:`perfbench.check`.

An operation is one ``design()`` call; on ``sweep`` it is one grid cell,
a ``design_best_architecture`` call over every width split of one
``(W, NB)`` budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from perfbench.check import Instance, bound_violation

#: SolveStats work counters that must repeat exactly for one seed.
WORK_COUNTERS = (
    "nodes", "lp_solves", "lp_iterations", "incumbent_updates", "presolve_fixings",
    "presolve_pruned", "cuts", "cut_rounds", "clique_cuts", "cover_cuts",
    "root_cols_removed", "root_rows_removed", "warm_lp_solves", "warm_lp_fallbacks",
)

#: The F1 grid of the paper's outer loop: S1 under serialization timing
#: over both bus counts, and an ITC'02-class system under flexible timing.
#: The flexible system is fixed: across seeds its grid evaluates anywhere
#: from 18 to 560 width splits (1 s to 14 s), so a seeded system would swamp
#: every other effect. It runs on two buses only; on three, its cells take
#: 20-75 ms each and split the cell latencies into two clusters with the
#: median on the gap, where it jumped by a third between runs.
SWEEP_WIDTHS = tuple(range(8, 49, 8))
SWEEP_SERIES = (("S1", "serial", (2, 3)), ("ITC8:0", "flexible", (2,)))

#: Node budget per anytime solve, and how many seeded ITC96 systems run.
ANYTIME_NODE_BUDGET = 150
ANYTIME_SEEDED = 3


@dataclass
class OpRecord:
    name: str
    seconds: float
    makespan: float
    lower_bound: float
    errors: list[str] = field(default_factory=list)
    bound_violations: int = 0
    counters: tuple = ()


def reset_process_state() -> None:
    """Empty the process-global memos so every pass starts cold."""
    from repro.runtime.cache import set_solve_cache
    import repro.tam.timing as timing
    import repro.wrapper.design as wrapper

    timing._TIME_CACHE.clear()
    wrapper._WRAPPER_CACHE.clear()
    set_solve_cache(None)


def _timed(call):
    """``(seconds, result)``; an exception is the result of a failed operation."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        result = exc
    return time.perf_counter() - start, result


def _failed(name: str, seconds: float, exc: Exception) -> OpRecord:
    return OpRecord(name, seconds, float("nan"), float("nan"),
                    [f"{name}: raised {type(exc).__name__}: {exc}"])


def _counters(stats) -> tuple:
    return tuple(getattr(stats, name) for name in WORK_COUNTERS)


def _top2_power(soc) -> float:
    powers = sorted(core.test_power for core in soc.cores)
    return powers[-1] + powers[-2]


def _distance_percentile(floorplan, q: float) -> float:
    centres = np.array([[block.x, block.y] for block in floorplan.blocks])
    dist = np.abs(centres[:, None, :] - centres[None, :, :]).sum(axis=2)
    upper = dist[np.triu_indices(len(centres), k=1)]
    return float(np.percentile(upper, q))


class Workload:
    name = ""
    #: Seconds one pass takes on a 2-core Xeon host; a run of ``--seconds``
    #: makes ``round(seconds / pass_seconds)`` passes (at least two). The
    #: count depends on the run length alone, never on how fast this host
    #: happens to be, so every run pools the same samples.
    pass_seconds = 5.0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Build inputs: everything an operation needs before it can start."""

    def prepare(self) -> dict:
        """Untimed work after setup (reference answers); returns a record."""
        return {}

    def run_pass(self) -> list[tuple]:
        """Run every operation once; returns ``(key, seconds, result)``."""
        raise NotImplementedError

    def check_pass(self, raw: list[tuple]) -> list[OpRecord]:
        """Check a pass's answers. Runs after the pass, outside any timing,
        so the checker's own timing-model lookups never warm a memo an
        operation reads."""
        raise NotImplementedError


def _check_design(instance: Instance, result, want_optimal: bool) -> list[str]:
    errors = instance.check(result.assignment.bus_of, result.makespan)
    status = result.status.value
    if want_optimal and status != "optimal":
        errors.append(f"{instance.name}: status {status}, expected a proof")
    elif status not in ("optimal", "feasible"):
        errors.append(f"{instance.name}: status {status}")
    return errors


class SweepWorkload(Workload):
    """The F1 grid on S1 (serialization timing) and ITC8 (flexible timing)."""

    name = "sweep"
    pass_seconds = 6.3

    def setup(self) -> None:
        from repro.api import resolve_soc

        self.series = [
            (resolve_soc(spec), timing, bus_counts) for spec, timing, bus_counts in SWEEP_SERIES
        ]

    def run_pass(self) -> list[tuple]:
        import repro.api as api

        reset_process_state()
        raw = []
        for soc, timing, bus_counts in self.series:
            for num_buses in bus_counts:
                for width in SWEEP_WIDTHS:
                    seconds, result = _timed(lambda: api.design_best_architecture(
                        soc, width, num_buses, timing=timing, cache=False))
                    raw.append(((soc, timing, width, num_buses), seconds, result))
        return raw

    def check_pass(self, raw: list[tuple]) -> list[OpRecord]:
        return [self._record(*key, result, seconds) for key, seconds, result in raw]

    @staticmethod
    def _record(soc, timing, width, num_buses, result, seconds) -> OpRecord:
        name = f"{soc.name}/{timing}/W{width}/NB{num_buses}"
        if isinstance(result, Exception):
            return _failed(name, seconds, result)
        best = result.best
        if best is None:
            return OpRecord(name, seconds, float("nan"), float("nan"), [f"{name}: no design"])
        instance = Instance(name, soc, best.arch.widths, timing=timing)
        errors = _check_design(instance, best, want_optimal=True)
        solved = [m for _, m in result.per_architecture if m is not None]
        if solved and min(solved) < best.makespan - 1e-6:
            errors.append(f"{name}: best {best.makespan} but a split reached {min(solved)}")
        telemetry = result.telemetry
        counters = tuple(getattr(telemetry, c, 0) for c in WORK_COUNTERS) + (
            result.evaluated, result.pruned, result.infeasible,
        )
        return OpRecord(
            name, seconds, best.makespan, instance.lower_bound, errors,
            int(bound_violation(best.stats.best_bound, best.makespan)), counters,
        )


class _DesignWorkload(Workload):
    """A fixed list of single ``design()`` calls."""

    want_optimal = False

    def instances(self) -> list[tuple[Instance, dict]]:
        raise NotImplementedError

    def setup(self) -> None:
        self.ops = self.instances()

    def run_pass(self) -> list[tuple]:
        import repro.api as api

        reset_process_state()
        raw = []
        for instance, kwargs in self.ops:
            problem = instance.fresh_problem()
            seconds, result = _timed(lambda: api.design(problem, cache=False, **kwargs))
            raw.append((instance, seconds, result))
        return raw

    def check_pass(self, raw: list[tuple]) -> list[OpRecord]:
        records = []
        for instance, seconds, result in raw:
            if isinstance(result, Exception):
                records.append(_failed(instance.name, seconds, result))
                continue
            errors = _check_design(instance, result, self.want_optimal)
            errors += self.check_optimum(instance, result)
            records.append(OpRecord(
                instance.name, seconds, result.makespan, instance.lower_bound, errors,
                int(bound_violation(result.stats.best_bound, result.makespan)),
                _counters(result.stats),
            ))
        return records

    def check_optimum(self, instance, result) -> list[str]:
        return []


class ExactWorkload(_DesignWorkload):
    """Proofs of optimality on a fixed ITC'02-class set, checked against HiGHS."""

    name = "exact"
    want_optimal = True
    pass_seconds = 4.0

    def instances(self):
        from repro.api import resolve_soc
        from repro.layout.placers import grid_place

        p93791, d695 = resolve_soc("p93791"), resolve_soc("d695")
        p_plan, d_plan = grid_place(p93791), grid_place(d695)
        return [
            (Instance("p93791/32-16-8", p93791, (32, 16, 8)), {}),
            (Instance("p93791/32-16-16/layout-p90", p93791, (32, 16, 16),
                      floorplan=p_plan, constrained=True,
                      max_pair_distance=_distance_percentile(p_plan, 90)), {}),
            (Instance("p93791/32-16-16/power-0.9", p93791, (32, 16, 16),
                      power_budget=0.9 * _top2_power(p93791), constrained=True), {}),
            (Instance("d695/32-16-16-8/power-0.7", d695, (32, 16, 16, 8),
                      power_budget=0.7 * _top2_power(d695), constrained=True), {}),
            (Instance("d695/32-16-16-8/layout-p50", d695, (32, 16, 16, 8),
                      floorplan=d_plan, constrained=True,
                      max_pair_distance=_distance_percentile(d_plan, 50)), {}),
        ]

    def prepare(self) -> dict:
        """Reference optima, untimed: HiGHS on the benchmark's own model.

        The program's ``backend="scipy"`` path (its formulation, HiGHS,
        its decode) must agree; a disagreement is an error of the run.
        """
        import repro.api as api

        self.reference, errors = {}, []
        for instance, _ in self.ops:
            reference = self.reference[instance.name] = instance.highs_optimum()
            seconds, result = _timed(
                lambda: api.design(instance.fresh_problem(), backend="scipy", cache=False))
            if isinstance(result, Exception):
                errors.append(f"{instance.name}: backend='scipy' raised {result!r}")
            elif abs(result.makespan - reference) > 0.5:
                errors.append(f"{instance.name}: backend='scipy' found {result.makespan}, "
                              f"HiGHS on the benchmark model {reference}")
        return {
            "reference": dict(self.reference),
            "reference_from": "scipy.optimize.milp (HiGHS) on perfbench.check's own MILP, "
                              "cross-checked against design(backend='scipy')",
            "pairs": {
                instance.name: {"forced": len(instance.forced), "forbidden": len(instance.forbidden)}
                for instance, _ in self.ops
            },
            "errors": errors,
        }

    def check_optimum(self, instance, result) -> list[str]:
        reference = self.reference[instance.name]
        if abs(result.makespan - reference) > 0.5:
            return [f"{instance.name}: optimum {result.makespan} but HiGHS proves {reference}"]
        return []


class AnytimeWorkload(_DesignWorkload):
    """``design()`` under a fixed node budget on scale128 and seeded ITC96 systems."""

    name = "anytime"

    def instances(self):
        from repro.api import SolvePolicy, resolve_soc

        policy = {"policy": SolvePolicy(node_budget=ANYTIME_NODE_BUDGET)}
        specs = ["scale128"] + [
            f"ITC96:{self.seed * ANYTIME_SEEDED + k}" for k in range(ANYTIME_SEEDED)
        ]
        return [
            (Instance(f"{spec}/32-16-16-8", resolve_soc(spec), (32, 16, 16, 8)), policy)
            for spec in specs
        ]


BATCH_WORKLOADS = {cls.name: cls for cls in (SweepWorkload, ExactWorkload, AnytimeWorkload)}
