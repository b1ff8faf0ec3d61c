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
    """Every split solved to optimality, no cutoff; the first strict minimum wins."""
    optima = {}
    best = None
    for arch in TamArchitecture.enumerate_distributions(total_width, num_buses):
        try:
            candidate = design(DesignProblem(soc=soc, arch=arch, **constraints))
        except InfeasibleError:
            optima[arch.widths] = None
            continue
        optima[arch.widths] = candidate.makespan
        if best is None or candidate.makespan < best.makespan:
            best = candidate
    return best, optima


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
        best, optima = reference_sweep(soc, total_width, num_buses, **constraints)

        if best is None:
            assert sweep.best is None
        else:
            assert sweep.best is not None
            assert sweep.best.makespan == best.makespan
            assert sweep.best.arch.widths == best.arch.widths
            assert sweep.best.is_proven_optimal
        for arch, makespan in sweep.per_architecture:
            assert makespan == optima[arch.widths]
        assert sweep.evaluated + sweep.pruned == len(optima)
        assert len(sweep.per_architecture) == sweep.evaluated


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
