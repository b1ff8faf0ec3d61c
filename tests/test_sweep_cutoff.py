"""The width-split sweep as a branch-and-bound: ``design(cutoff=...)``.

Once the sweep holds an incumbent, every later split is solved only for a
design strictly better than it. The property below checks the pruned sweep
against a reference written here that solves every split to optimality
with no cutoff; the unit tests pin the ``cutoff`` contract of ``design()``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    MetricsRegistry,
    PortfolioPolicy,
    SolvePolicy,
    SolverOptions,
    use_metrics,
)
from repro.core import DesignProblem, design, design_best_architecture
from repro.core.baselines import lpt_assignment
from repro.ilp.solution import SolveStats, Status
from repro.layout import grid_place
from repro.soc import generate_synthetic_soc
from repro.tam import TamArchitecture
from repro.tam.timing import SerializationTiming
from repro.util.errors import InfeasibleError


class _QuarterCycleTiming(SerializationTiming):
    """Serialization timing shifted off the integers by a quarter cycle."""

    def time_on_bus(self, core, bus_width):
        return super().time_on_bus(core, bus_width) + 0.25


def reference_sweep(soc, total_width, num_buses, **constraints):
    """Every split solved to optimality, no cutoff; the first strict minimum wins.

    Returns the best design, each split's optimum (``None`` when infeasible)
    and the ``(evaluated, pruned, infeasible)`` counts the pruned sweep must
    report: walking the splits in enumeration order, a split is evaluated
    when no incumbent exists yet, when it strictly improves the incumbent,
    or when some core fits none of its buses; every other split is pruned.
    """
    optima = {}
    best = None
    evaluated = pruned = infeasible = 0
    for arch in TamArchitecture.enumerate_distributions(total_width, num_buses):
        problem = DesignProblem(soc=soc, arch=arch, **constraints)
        try:
            candidate = design(problem)
        except InfeasibleError:
            optima[arch.widths] = None
            candidate = None
        else:
            optima[arch.widths] = candidate.makespan
        width_infeasible = not np.isfinite(problem.times.min(axis=1)).all()
        if best is None or width_infeasible or (
            candidate is not None and candidate.makespan < best.makespan
        ):
            evaluated += 1
            infeasible += candidate is None
        else:
            pruned += 1
        if candidate is not None and (best is None or candidate.makespan < best.makespan):
            best = candidate
    return best, optima, (evaluated, pruned, infeasible)


def _constraints(soc, timing: str, budget: str) -> dict:
    constraints: dict = {"timing": timing}
    if budget == "power":
        powers = sorted(core.test_power for core in soc.cores)
        constraints["power_budget"] = powers[-1] + powers[-2]
    elif budget == "layout":
        floorplan = grid_place(soc)
        centres = np.array([[b.x, b.y] for b in floorplan.blocks])
        dist = np.abs(centres[:, None, :] - centres[None, :, :]).sum(axis=2)
        constraints["floorplan"] = floorplan
        constraints["max_pair_distance"] = float(
            np.median(dist[np.triu_indices(len(centres), k=1)])
        )
    return constraints


class TestSweepMatchesReference:
    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 200),
        num_cores=st.integers(3, 6),
        num_buses=st.integers(2, 3),
        total_width=st.integers(4, 14),
        timing=st.sampled_from(["serial", "fixed", "flexible"]),
        budget=st.sampled_from(["none", "power", "layout"]),
    )
    def test_pruned_sweep_equals_exhaustive_sweep(
        self, seed, num_cores, num_buses, total_width, timing, budget
    ):
        if total_width < num_buses:
            total_width = num_buses
        soc = generate_synthetic_soc(num_cores, seed=seed)
        constraints = _constraints(soc, timing, budget)
        sweep = design_best_architecture(
            soc, total_width, num_buses, cache=False, **constraints
        )
        best, optima, counts = reference_sweep(soc, total_width, num_buses, **constraints)

        if best is None:
            assert sweep.best is None
        else:
            assert sweep.best is not None
            assert sweep.best.makespan == best.makespan
            assert sweep.best.arch.widths == best.arch.widths
            assert sweep.best.is_proven_optimal
        for arch, makespan in sweep.per_architecture:
            assert makespan == optima[arch.widths]
        assert (sweep.evaluated, sweep.pruned, sweep.infeasible) == counts
        assert sweep.evaluated + sweep.pruned == len(optima)
        assert len(sweep.per_architecture) == sweep.evaluated
        assert 0 <= sweep.dominated <= sweep.pruned


class TestDesignCutoff:
    @pytest.fixture(scope="class")
    def problem(self, s1):
        # LPT misses the optimum here, so its seed can sit above a cap the
        # optimum clears.
        return DesignProblem(soc=s1, arch=TamArchitecture((16, 16)), timing="serial")

    @pytest.fixture(scope="class")
    def optimum(self, problem):
        return design(problem, cache=False)

    def test_cutoff_at_the_optimum_raises_cutoff(self, problem, optimum):
        with pytest.raises(InfeasibleError) as info:
            design(problem, cache=False, cutoff=optimum.makespan)
        assert info.value.reason == "cutoff"
        assert isinstance(info.value.stats, SolveStats)

    def test_cutoff_one_above_the_optimum_returns_it(self, problem, optimum):
        capped = design(problem, cache=False, cutoff=optimum.makespan + 1)
        assert capped.status is Status.OPTIMAL
        assert capped.makespan == optimum.makespan

    def test_cutoff_below_the_lower_bound_skips_the_solve(self, problem):
        with pytest.raises(InfeasibleError) as info:
            design(problem, cache=False, cutoff=problem.makespan_lower_bound())
        assert info.value.reason == "cutoff"
        assert info.value.stats is None

    def test_lpt_seed_above_the_cap_is_ignored(self, problem, optimum):
        lpt = lpt_assignment(problem).makespan
        assert lpt > optimum.makespan
        capped = design(problem, cache=False, warm_start_heuristic=True, cutoff=lpt)
        assert capped.status is Status.OPTIMAL
        assert capped.makespan == optimum.makespan

    def test_incumbent_seed_above_the_cap_is_ignored(self, problem, optimum):
        seed = lpt_assignment(problem).assignment
        capped = design(
            problem, cache=False, incumbent=seed, cutoff=seed.makespan(problem.timing)
        )
        assert capped.makespan == optimum.makespan
        with pytest.raises(InfeasibleError, match="cutoff"):
            design(
                problem, cache=False, incumbent=optimum.assignment, cutoff=optimum.makespan
            )

    def test_non_integral_times_use_a_relative_margin(self, problem):
        scaled = DesignProblem(soc=problem.soc, arch=problem.arch, timing=_QuarterCycleTiming())
        best = design(scaled, cache=False)
        assert best.makespan != math.floor(best.makespan)
        with pytest.raises(InfeasibleError, match="cutoff"):
            design(scaled, cache=False, cutoff=best.makespan)
        # Half a cycle of headroom is enough when cycles are not integral.
        assert design(scaled, cache=False, cutoff=best.makespan + 0.5).makespan == (
            best.makespan
        )

    def test_portfolio_forwards_the_cutoff_to_the_exact_leg(self, problem, optimum):
        policy = SolvePolicy(solver=SolverOptions(portfolio=PortfolioPolicy()))
        with pytest.raises(InfeasibleError) as info:
            design(problem, cache=False, policy=policy, cutoff=optimum.makespan)
        assert info.value.reason == "cutoff"
        raced = design(problem, cache=False, policy=policy, cutoff=optimum.makespan + 1)
        assert raced.makespan == optimum.makespan
        assert raced.portfolio is not None


class TestSweepBookkeeping:
    def test_telemetry_counts_every_split_solve(self, s1):
        registry = MetricsRegistry()
        with use_metrics(registry):
            sweep = design_best_architecture(s1, 24, 3, timing="serial", cache=False)
        assert sweep.pruned > 0
        counts = registry.counts()
        assert sweep.telemetry.nodes == counts.get("solve.nodes", 0)
        assert sweep.telemetry.lp_solves == counts.get("solve.lp_solves", 0)


@pytest.fixture
def solved(monkeypatch):
    """Every split the sweep hands to ``design()``, mapped to how it ended."""
    import repro.core.designer as designer

    real = designer.design
    outcomes: dict[tuple[int, ...], str] = {}

    def recording_design(problem, **kwargs):
        try:
            candidate = real(problem, **kwargs)
        except InfeasibleError as exc:
            outcomes[problem.arch.widths] = f"infeasible ({exc.reason})"
            raise
        outcomes[problem.arch.widths] = candidate.status.value
        return candidate

    monkeypatch.setattr(designer, "design", recording_design)
    return outcomes


def _split_times(soc, total_width, num_buses, **constraints):
    """``(widths, times)`` of every split, in enumeration order."""
    return [
        (arch.widths, DesignProblem(soc=soc, arch=arch, **constraints).times)
        for arch in TamArchitecture.enumerate_distributions(total_width, num_buses)
    ]


class TestBudgetedSweep:
    @pytest.mark.parametrize("portfolio", [None, PortfolioPolicy()])
    def test_budget_stopped_cutoff_solve_raises_unproven(self, s1, portfolio):
        # The portfolio's exact leg passes the error on like a proven one.
        problem = DesignProblem(soc=s1, arch=TamArchitecture((31, 9)), timing="serial")
        policy = SolvePolicy(node_budget=1, solver=SolverOptions(portfolio=portfolio))
        with pytest.raises(InfeasibleError) as info:
            design(problem, cache=False, policy=policy, cutoff=8935)
        assert info.value.reason == "cutoff"
        assert not info.value.proven
        assert isinstance(info.value.stats, SolveStats)

    def test_budget_stopped_cutoff_solve_is_unproven_not_a_heuristic(self, s1, monkeypatch):
        # One node per solve: once the sweep holds 8935 cycles, splits
        # (31,9)...(25,15) stop with nothing below it. No ladder rung may
        # stand in for them, and nothing was proven about them.
        import repro.core.designer as designer

        real = designer.design
        provenance: dict[tuple[int, ...], str] = {}
        unproven: list[tuple[int, ...]] = []

        def recording_design(problem, **kwargs):
            try:
                candidate = real(problem, **kwargs)
            except InfeasibleError as exc:
                if not exc.proven:
                    assert exc.reason == "cutoff" and exc.stats is not None
                    unproven.append(problem.arch.widths)
                raise
            provenance[problem.arch.widths] = candidate.provenance
            return candidate

        monkeypatch.setattr(designer, "design", recording_design)
        sweep = design_best_architecture(
            s1, 40, 2, timing="serial", policy=SolvePolicy(node_budget=1), cache=False
        )
        assert not [w for w, source in provenance.items() if source in ("lpt", "sa")]
        assert {(31, 9), (25, 15)} <= set(unproven)
        assert sweep.unproven == len(unproven)
        assert not {widths for widths, _ in sweep.per_architecture} & set(unproven)
        splits = list(TamArchitecture.enumerate_distributions(40, 2))
        assert sweep.evaluated + sweep.pruned + sweep.unproven == len(splits)


class TestDominatedSplits:
    """A split no faster than an earlier proven split is settled unsolved."""

    def test_split_equal_to_an_earlier_one_is_never_solved(self, s1, solved):
        sweep = design_best_architecture(s1, 48, 3, timing="serial", cache=False)
        splits = _split_times(s1, 48, 3, timing="serial")
        twins = {
            widths
            for k, (widths, times) in enumerate(splits)
            if any(np.array_equal(times, earlier) for _, earlier in splits[:k])
        }
        assert len(twins) > len(splits) // 2
        assert not twins & solved.keys()
        assert sweep.dominated >= len(twins)
        assert sweep.best.makespan == 5363
        assert sweep.best.arch.widths == (16, 16, 16)

    def test_budget_stopped_split_does_not_dominate(self, s1, solved):
        # One node per solve: most splits stop with an unproven incumbent.
        policy = SolvePolicy(node_budget=1)
        design_best_architecture(s1, 40, 2, timing="serial", policy=policy, cache=False)
        splits = _split_times(s1, 40, 2, timing="serial")
        covered_by_unproven = [
            widths
            for k, (widths, times) in enumerate(splits)
            if (dominators := [w for w, earlier in splits[:k] if (earlier <= times).all()])
            and all(solved.get(w) == Status.FEASIBLE.value for w in dominators)
        ]
        assert covered_by_unproven
        assert set(covered_by_unproven) <= solved.keys()

    def test_heuristic_only_failure_does_not_dominate(self, s1, s1_floorplan, solved):
        # Every pair of S1 cores is further apart than 2 units, so no two
        # may share a bus: infeasible on three buses, but only heuristics run.
        policy = SolvePolicy(solver=SolverOptions(portfolio=PortfolioPolicy(entrants=("lpt",))))
        sweep = design_best_architecture(
            s1, 12, 3, timing="serial", floorplan=s1_floorplan, max_pair_distance=2.0,
            policy=policy, cache=False,
        )
        assert sweep.best is None
        splits = _split_times(s1, 12, 3, timing="serial")
        assert len(solved) == len(splits) == sweep.evaluated == sweep.infeasible
        assert all(outcome.startswith("infeasible") for outcome in solved.values())

    def test_dominated_split_before_the_first_incumbent_is_infeasible(
        self, s1, s1_floorplan, solved
    ):
        # Fixed widths and a layout budget: the 16-wide cores c7552 and
        # s5378 may not share a bus, so every split with one 16-wide bus is
        # infeasible, and many of them have identical test-time matrices.
        constraints = {
            "timing": "fixed", "floorplan": s1_floorplan, "max_pair_distance": 5.0,
        }
        sweep = design_best_architecture(s1, 36, 3, cache=False, **constraints)
        best, optima, counts = reference_sweep(s1, 36, 3, **constraints)
        assert (sweep.evaluated, sweep.pruned, sweep.infeasible) == counts
        assert sweep.best.makespan == best.makespan
        assert sweep.best.arch.widths == best.arch.widths

        # Recorded as infeasible, never solved, though every core fits a bus.
        splits = _split_times(s1, 36, 3, **constraints)
        width_feasible = [
            widths for widths, times in splits if np.isfinite(times.min(axis=1)).all()
        ]
        recorded = {arch.widths: makespan for arch, makespan in sweep.per_architecture}
        skipped = [
            widths for widths in width_feasible if widths in recorded and widths not in solved
        ]
        assert skipped
        assert all(recorded[widths] is None and optima[widths] is None for widths in skipped)
        order = [widths for widths, _ in splits]
        assert max(map(order.index, skipped)) < order.index(best.arch.widths)
