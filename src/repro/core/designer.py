"""End-to-end architecture design: solve instances, sweep width splits.

:func:`design` solves one :class:`DesignProblem` to optimality and wraps the
result as a :class:`TamDesign` — assignment, certified makespan, wirelength
(when a floorplan is attached), and solver work counters.

:func:`design_best_architecture` reproduces the paper's outer loop: given a
total TAM width budget ``W`` and a bus count ``NB``, enumerate the width
distributions (integer partitions of W into NB parts — buses are symmetric
before assignment), and keep the best, solving each later distribution only
for a design that beats the incumbent and skipping one that an earlier
proven distribution dominates entry for entry. Infeasible distributions are
recorded, not ignored: the constrained experiments need to report how much
of the design space a tight budget kills. (A capped solve cannot tell
"infeasible" from "cannot improve"; it counts as pruned, or as unproven
when a solve budget stopped it before it proved either.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.formulation import build_assignment_ilp
from repro.core.problem import DesignProblem
from repro.ilp.solution import SolveStats, Status
from repro.layout.floorplan import Floorplan
from repro.layout.routing import tam_wirelength
from repro.obs import DEFAULT_CUT_POLICY, FallbackReport, SolvePolicy, get_metrics, now, span
from repro.runtime.telemetry import RunTelemetry
from repro.soc.system import Soc
from repro.tam.architecture import TamArchitecture
from repro.tam.assignment import Assignment
from repro.tam.timing import TimingModel
from repro.util.errors import InfeasibleError, SolverError

if TYPE_CHECKING:  # pragma: no cover - runtime.portfolio imports back into core
    from repro.runtime.portfolio import PortfolioReport


@dataclass
class TamDesign:
    """An optimized test access architecture for one problem instance.

    ``fallback`` records the resilience path that produced this design
    (:class:`~repro.obs.FallbackReport`): ``None``/``"exact"`` for a proven
    optimum, ``"incumbent"`` for a budget-truncated best-so-far, and
    ``"lpt"``/``"sa"`` when the exact search found nothing and a heuristic
    stood in. ``portfolio`` is the race provenance
    (:class:`~repro.runtime.portfolio.PortfolioReport`) when the design
    came out of the racing portfolio, ``None`` otherwise.
    """

    problem: DesignProblem
    assignment: Assignment
    makespan: float
    bus_times: list[float]
    status: Status
    stats: SolveStats
    backend: str
    wirelength: float | None = None
    fallback: FallbackReport | None = None
    portfolio: "PortfolioReport | None" = None

    @property
    def arch(self) -> TamArchitecture:
        return self.problem.arch

    @property
    def is_proven_optimal(self) -> bool:
        return self.status is Status.OPTIMAL

    @property
    def provenance(self) -> str:
        """Where the answer came from: exact / incumbent / lpt / sa."""
        return self.fallback.source if self.fallback is not None else "exact"

    def describe(self) -> str:
        lines = [
            f"TAM design for {self.problem.soc.name} [{self.problem.constraint_summary()}]",
            self.assignment.describe(self.problem.timing),
        ]
        if self.wirelength is not None:
            lines.append(f"  TAM wirelength: {self.wirelength:.1f} wire-mm")
        cached = ", cached" if self.stats.cache_hit else ""
        lines.append(
            f"  solver: {self.backend}, status={self.status.value}, "
            f"nodes={self.stats.nodes}, LPs={self.stats.lp_solves}, "
            f"{self.stats.wall_time * 1000:.0f} ms{cached}"
        )
        if self.fallback is not None and (self.fallback.degraded or self.fallback.retries):
            lines.append(f"  resilience: {self.fallback.render()}")
        if self.portfolio is not None:
            lines.append(f"  {self.portfolio.render()}")
        return "\n".join(lines)


def design(
    problem: DesignProblem,
    backend: str = "bnb",
    wirelength_method: str = "chain",
    warm_start_heuristic: bool = False,
    cache: "object | bool | None" = None,
    policy: SolvePolicy | None = None,
    incumbent: Assignment | None = None,
    *,
    cutoff: float | None = None,
    **solver_options,
) -> TamDesign:
    """Solve ``problem`` — to proven optimality, or as far as a policy allows.

    Solver knobs travel on ``policy.solver``
    (:class:`~repro.obs.SolverOptions`: presolve, branching, a
    :class:`~repro.obs.CutPolicy` cuts block, a root-model
    :class:`~repro.obs.PresolvePolicy`, the ``warm_start`` node-LP
    toggle, checkpoint interval); they
    only apply to the bnb backend and are rejected elsewhere. When nothing
    chose a cut policy, the designer turns branch-and-cut on with
    :data:`~repro.obs.DEFAULT_CUT_POLICY` — the TAM formulations are rich
    in conflict structure and separation is a no-op when they are not.
    Root presolve and warm-started node LPs are likewise on by default
    inside the solver itself (see DESIGN.md §13); disable them per request
    with ``SolverOptions(root_presolve=PresolvePolicy.disabled(),
    warm_start=False)``. Any other keyword goes to the backend unchanged,
    as on :meth:`~repro.ilp.model.Model.solve`.

    Without a ``policy`` the solve is exact: :class:`InfeasibleError` when
    the constraints admit no assignment, :class:`SolverError` if the backend
    stops without a proof. With a :class:`~repro.obs.SolvePolicy` the path
    is *anytime*: on budget exhaustion the best incumbent is returned with
    ``Status.FEASIBLE`` provenance, and when no incumbent exists the
    policy's degradation ladder (LPT greedy, then simulated annealing by
    default) stands in — with every step recorded in the design's
    :class:`~repro.obs.FallbackReport` and the process metrics. A policy
    with an empty ladder restores the strict behavior under a budget.

    ``warm_start_heuristic`` feeds the LPT greedy solution to the branch &
    bound as its initial incumbent (bnb backend only): the optimum is
    unchanged, pruning just starts earlier. ``incumbent`` injects an
    arbitrary known-good :class:`~repro.tam.assignment.Assignment` the same
    way — the channel the racing portfolio cross-feeds heuristic winners
    through.

    When ``policy.solver.portfolio`` is an enabled
    :class:`~repro.obs.PortfolioPolicy` (and the backend is ``bnb``), the
    solve is dispatched to :func:`repro.runtime.portfolio.run_portfolio`:
    the heuristic rungs race on the process pool, their best incumbent is
    cross-fed to the exact search, and the returned design carries a
    :class:`~repro.runtime.portfolio.PortfolioReport` in ``.portfolio``.

    ``cutoff`` asks only for a design strictly better than a known
    makespan: the upper bound of the makespan variable drops one cycle
    below it (test times are integral cycle counts; when some finite time
    is not, a ``1e-9`` relative margin stands in for the cycle). A capped
    model with no solution raises :class:`InfeasibleError` with
    ``reason="cutoff"`` — "cannot improve", usually proven at the root. A
    warm-start seed (LPT or ``incumbent``) that does not beat the cap is
    dropped. A budgeted solve that stops with nothing under the cap raises
    the same error with ``proven=False`` instead of walking the degradation
    ladder. With an enabled portfolio the cutoff applies to the exact
    entrant only.

    ``cache`` is forwarded to :meth:`Model.solve`: a
    :class:`~repro.runtime.cache.SolutionCache` memoizes this solve, ``None``
    defers to the active context cache, ``False`` bypasses caching. A capped
    model differs from the uncapped one in a variable bound, so the two
    never share a cache entry.
    """
    portfolio = (
        policy.solver.portfolio
        if policy is not None and policy.solver is not None
        else None
    )
    if portfolio is not None and portfolio.enabled:
        if backend != "bnb":
            raise ValueError(
                f"portfolio racing only applies to the bnb backend, got {backend!r}"
            )
        if incumbent is not None:
            raise ValueError(
                "incumbent= cannot be combined with an enabled portfolio "
                "(the race supplies its own cross-fed incumbent)"
            )
        from repro.runtime.portfolio import run_portfolio

        return run_portfolio(
            problem,
            policy,
            cache=cache,
            wirelength_method=wirelength_method,
            cutoff=cutoff,
            **solver_options,
        )
    contradictions = problem.contradictions()
    if contradictions:
        names = problem.soc.core_names
        listed = ", ".join(f"({names[a]}, {names[b]})" for a, b in contradictions[:4])
        raise InfeasibleError(
            f"power budget forces and layout budget forbids the same pair(s): {listed}",
            reason="forced/forbidden contradiction",
        )

    with span("formulate", soc=problem.soc.name):
        formulation = build_assignment_ilp(problem)
    if backend == "bnb" and "gap_tol" not in solver_options and (
        policy is None or policy.gap_tol is None
    ):
        # Test times are integral cycle counts: stop once the bound is
        # within one cycle of the incumbent.
        solver_options["gap_tol"] = 1.0 - 1e-6
    if (
        backend == "bnb"
        and "cut_policy" not in solver_options
        and (policy is None or policy.solver is None or policy.solver.cuts is None)
    ):
        # Branch-and-cut by default: separation only ever strengthens the
        # relaxation (never the optimum) and no-ops on instances without
        # conflict/knapsack structure. CutPolicy.disabled() opts out.
        solver_options["cut_policy"] = DEFAULT_CUT_POLICY
    makespan_var = formulation.makespan_var
    if cutoff is not None:
        makespan_var.ub = _cutoff_cap(problem, cutoff)
        if makespan_var.lb > makespan_var.ub:
            raise InfeasibleError(
                f"lower bound {makespan_var.lb:g} cannot beat cutoff {cutoff:g}",
                reason="cutoff",
            )
    seed: tuple[tuple[int, ...], float] | None = None
    if incumbent is not None and backend == "bnb" and "warm_start" not in solver_options:
        violations = problem.validate(incumbent)
        if violations:
            raise ValueError(
                "incumbent= must be feasible for the problem; violations: "
                + "; ".join(violations)
            )
        seed = (incumbent.bus_of, incumbent.makespan(problem.timing))
    elif warm_start_heuristic and backend == "bnb" and "warm_start" not in solver_options:
        from repro.core.baselines import lpt_assignment

        try:
            baseline = lpt_assignment(problem)
        except InfeasibleError:
            pass  # greedy failed; B&B starts cold and still proves the answer
        else:
            seed = (baseline.assignment.bus_of, baseline.makespan)
    if seed is not None and seed[1] <= makespan_var.ub:
        bus_of, seed_makespan = seed
        values = {
            var: 1.0 if bus_of[i] == j else 0.0 for (i, j), var in formulation.x.items()
        }
        values[makespan_var] = seed_makespan
        solver_options["warm_start"] = values
    with span("solve", backend=backend):
        solution = formulation.model.solve(
            backend=backend, cache=cache, policy=policy, **solver_options
        )

    if solution.status is Status.INFEASIBLE:
        if cutoff is not None:
            raise InfeasibleError(
                f"no assignment beats cutoff {cutoff:g} for {problem.constraint_summary()}",
                reason="cutoff",
                stats=solution.stats,
            )
        raise InfeasibleError(
            f"no feasible assignment for {problem.constraint_summary()}",
            reason="ILP infeasible",
            stats=solution.stats,
        )

    report = FallbackReport(retries=solution.stats.retries)
    if not solution.is_feasible:
        if cutoff is not None:
            # The caller already holds a design at the cutoff; a ladder
            # rung would only stand in for a search that proved nothing.
            raise InfeasibleError(
                f"budget exhausted before any assignment beat cutoff {cutoff:g} "
                f"for {problem.constraint_summary()}",
                reason="cutoff",
                stats=solution.stats,
                proven=False,
            )
        # Budget exhausted with no incumbent: walk the degradation ladder.
        return _degrade(problem, solution, backend, policy, report, wirelength_method)
    if solution.status is Status.FEASIBLE:
        report.source = "incumbent"
        report.reason = f"budget exhausted after {solution.stats.nodes} nodes"
        report.record_step("exact", "incumbent", nodes=solution.stats.nodes)

    with span("decode"):
        assignment = formulation.decode(solution)
        violations = problem.validate(assignment)
        if violations:
            raise SolverError(
                "solver returned an assignment violating the problem constraints: "
                + "; ".join(violations)
            )
        bus_times = assignment.bus_times(problem.timing)
        makespan = max(bus_times)
        wirelength = None
        if problem.floorplan is not None:
            wirelength = tam_wirelength(problem.floorplan, assignment, method=wirelength_method)
    if report.degraded:
        get_metrics().counter("design.fallbacks").inc()
    return TamDesign(
        problem=problem,
        assignment=assignment,
        makespan=makespan,
        bus_times=bus_times,
        status=solution.status,
        stats=solution.stats,
        backend=solution.backend,
        wirelength=wirelength,
        fallback=report,
    )


def _cutoff_cap(problem: DesignProblem, cutoff: float) -> float:
    """Largest makespan that strictly beats ``cutoff``.

    One cycle below it when every finite test time is an integral cycle
    count (then so is every makespan) — the same fact the default
    ``gap_tol`` relies on — and a ``1e-9`` relative margin otherwise.
    """
    finite = problem.times[np.isfinite(problem.times)]
    if np.array_equal(finite, np.round(finite)):
        return cutoff - (1.0 - 1e-6)
    return cutoff - 1e-9 * max(1.0, abs(cutoff))


def _degrade(
    problem: DesignProblem,
    solution,
    backend: str,
    policy: SolvePolicy | None,
    report: FallbackReport,
    wirelength_method: str,
) -> TamDesign:
    """Budget exhausted without an incumbent: heuristics stand in.

    Walks ``policy.fallback`` (default LPT greedy, then simulated
    annealing). Each rung's outcome lands in the report; if every rung
    fails — or the policy forbids degradation — the original strict
    :class:`SolverError` is raised.
    """
    ladder = policy.fallback if policy is not None else ()
    report.reason = (
        f"backend {backend!r} stopped with status {solution.status.value} "
        f"after {solution.stats.nodes} nodes"
    )
    report.record_step("exact", "no_incumbent", nodes=solution.stats.nodes)
    assignment = None
    with span("fallback", ladder=list(ladder)):
        for rung in ladder:
            try:
                if rung == "lpt":
                    from repro.core.baselines import lpt_assignment

                    candidate = lpt_assignment(problem)
                else:  # "sa" — the only other registered rung
                    from repro.core.baselines import simulated_annealing

                    seed = policy.fallback_seed if policy is not None else 0
                    candidate = simulated_annealing(problem, seed=seed)
            except InfeasibleError as exc:
                report.record_step(rung, "infeasible", detail=str(exc.reason or exc))
                continue
            report.record_step(rung, "ok", makespan=candidate.makespan)
            report.source = rung
            assignment = candidate.assignment
            break
    if assignment is None:
        raise SolverError(report.reason)

    get_metrics().counter("design.fallbacks").inc()
    bus_times = assignment.bus_times(problem.timing)
    wirelength = None
    if problem.floorplan is not None:
        wirelength = tam_wirelength(problem.floorplan, assignment, method=wirelength_method)
    return TamDesign(
        problem=problem,
        assignment=assignment,
        makespan=max(bus_times),
        bus_times=bus_times,
        status=Status.FEASIBLE,
        stats=solution.stats,
        backend=solution.backend,
        wirelength=wirelength,
        fallback=report,
    )


@dataclass
class ArchitectureSweepResult:
    """Outcome of sweeping width distributions for one (W, NB) budget.

    ``pruned`` counts distributions proven unable to improve the incumbent
    best: an earlier proven distribution dominated it, a cheap certified
    lower bound already matched or exceeded the incumbent (neither is
    solved at all), or the solve capped one cycle below it found nothing.
    ``evaluated`` counts the rest — the provably infeasible ones and those
    solved to their own optimum or as far as a budget allowed.
    ``unproven`` counts the capped solves that a solve budget stopped with
    nothing below the incumbent and no proof that nothing is, so
    ``evaluated + pruned + unproven`` is every enumerated distribution.
    ``dominated`` is the part of ``pruned`` that dominance settled (see
    :func:`design_best_architecture`).
    ``per_architecture`` lists the evaluated distributions with their
    optimum (``None`` when infeasible); a pruned one appears nowhere.
    ``telemetry`` aggregates the solver work (and cache hits) over every
    solve the sweep ran, capped ones included.
    """

    soc_name: str
    total_width: int
    num_buses: int
    best: TamDesign | None
    per_architecture: list[tuple[TamArchitecture, float | None]] = field(default_factory=list)
    evaluated: int = 0
    infeasible: int = 0
    pruned: int = 0
    dominated: int = 0
    unproven: int = 0
    wall_time: float = 0.0
    telemetry: RunTelemetry = field(default_factory=RunTelemetry)

    @property
    def best_makespan(self) -> float:
        return self.best.makespan if self.best else math.inf


def design_best_architecture(
    soc: Soc,
    total_width: int,
    num_buses: int,
    timing: TimingModel | str = "fixed",
    power_budget: float | None = None,
    floorplan: Floorplan | None = None,
    max_pair_distance: float | None = None,
    backend: str = "bnb",
    clamp_useless_width: bool = False,
    policy: SolvePolicy | None = None,
    **solver_options,
) -> ArchitectureSweepResult:
    """Optimal width distribution + assignment for a total width budget.

    Enumerates integer partitions of ``total_width`` into ``num_buses``
    positive parts (symmetric permutations deduplicated) and branches and
    bounds over them: once some distribution holds the incumbent best,
    every later one is first checked against cheap certified lower bounds
    and otherwise solved with ``design(cutoff=best)``, which proves "cannot
    improve" (usually at the root) instead of finding an optimum that would
    be thrown away. Only a strictly better makespan replaces the incumbent,
    so the best makespan and width distribution are exactly those of
    solving every distribution to optimality; the assignment may be another
    optimum of the same distribution. See :class:`ArchitectureSweepResult`
    for what the sweep trace records.

    Before any of that, a distribution is skipped when its test-time matrix
    is elementwise no better than that of an earlier distribution with a
    proven verdict (a proven optimum, an infeasibility proof, or a prune).
    Forced and forbidden pairs do not depend on widths, so every assignment
    of the dominated distribution is one of the earlier one with no bus
    slower: it cannot beat the incumbent, and before the first incumbent it
    is infeasible like the earlier one. It is recorded exactly as its capped
    solve would have been. A budgeted solve that stopped without a proof
    never dominates.

    With ``clamp_useless_width`` the enumeration caps each bus at the timing
    model's :meth:`~repro.tam.timing.TimingModel.max_useful_bus_width` and
    shrinks the budget to ``num_buses x cap`` when it exceeds it — wider
    buses cannot improve any core, so the clamped sweep reaches the same
    optimum over a far smaller space (used by the dual width-minimization
    search, where budgets can be large).
    """
    from repro.tam.timing import make_timing_model

    start = now()
    result = ArchitectureSweepResult(soc.name, total_width, num_buses, best=None)
    max_bus_width = None
    if clamp_useless_width:
        timing_model = make_timing_model(timing) if isinstance(timing, str) else timing
        max_bus_width = timing_model.max_useful_bus_width(soc)
        total_width = min(total_width, num_buses * max_bus_width)
        timing = timing_model
    # One flattened times matrix per split with a proven verdict (optimum,
    # infeasibility proof, or prune); a split no faster on any (core, bus)
    # than one of them cannot win either.
    proven = np.empty((0, len(soc) * num_buses))
    for arch in TamArchitecture.enumerate_distributions(
        total_width, num_buses, max_bus_width=max_bus_width
    ):
        problem = DesignProblem(
            soc=soc,
            arch=arch,
            timing=timing,
            power_budget=power_budget,
            floorplan=floorplan,
            max_pair_distance=max_pair_distance,
        )
        # Certified lower bounds that hold under any constraint set: the
        # slowest core on its fastest bus, and total work spread perfectly
        # over the buses. An infinite bound means some core fits no bus
        # (provably infeasible, recorded without solving); a finite bound
        # matching the incumbent cannot strictly improve the sweep.
        times = problem.times.ravel()
        per_core_best = np.min(problem.times, axis=1)
        if not np.isfinite(per_core_best).all():
            result.evaluated += 1
            result.infeasible += 1
            result.per_architecture.append((arch, None))
            continue
        if (proven <= times).all(axis=1).any():
            # Dominated: the earlier split admits every assignment of this
            # one, none slower, so its verdict carries over — pruned behind
            # an incumbent, infeasible before the first one.
            if result.best is not None:
                result.pruned += 1
                result.dominated += 1
            else:
                result.evaluated += 1
                result.infeasible += 1
                result.per_architecture.append((arch, None))
            continue
        if result.best is not None:
            singleton_bound = float(np.max(per_core_best))
            work_bound = float(np.sum(per_core_best)) / num_buses
            if max(singleton_bound, work_bound) >= result.best.makespan - 1e-9:
                result.pruned += 1
                proven = np.vstack((proven, times))
                continue
        cutoff = None if result.best is None else result.best.makespan
        try:
            candidate = design(
                problem, backend=backend, policy=policy, cutoff=cutoff, **solver_options
            )
        except InfeasibleError as exc:
            if exc.stats is not None:
                result.telemetry.record(exc.stats)
            if exc.proven:
                proven = np.vstack((proven, times))
            if exc.reason == "cutoff":
                if exc.proven:
                    result.pruned += 1
                else:
                    result.unproven += 1
                continue
            result.evaluated += 1
            result.infeasible += 1
            result.per_architecture.append((arch, None))
            continue
        result.evaluated += 1
        result.telemetry.record(candidate.stats)
        result.telemetry.record_fallback(candidate.fallback)
        result.telemetry.record_portfolio(candidate.portfolio)
        result.per_architecture.append((arch, candidate.makespan))
        if candidate.is_proven_optimal:
            proven = np.vstack((proven, times))
        if result.best is None or candidate.makespan < result.best.makespan:
            result.best = candidate
    result.wall_time = now() - start
    return result
