"""Aggregated solver telemetry for experiment runs and reports.

Every backend returns a per-solve :class:`~repro.ilp.solution.SolveStats`;
:class:`RunTelemetry` folds those into run-level counters — how many solves
a harness issued, how many were answered from the cache, and how much
branch-and-bound / LP work the fresh ones cost. Experiment results carry one
instance, rendered as a one-line footer and exported through the CLI's
``--json`` output.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from repro.ilp.solution import SolveStats


@dataclass
class RunTelemetry:
    """Run-level roll-up of solver work.

    ``nodes`` / ``lp_solves`` / ``lp_iterations`` / ``incumbent_updates`` /
    ``wall_time`` count only *fresh* solves — a cache hit re-reports the
    original solve's counters on its own :class:`SolveStats`, but folding
    them in again would double-count work that never re-ran.
    """

    solves: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    nodes: int = 0
    lp_solves: int = 0
    lp_iterations: int = 0
    incumbent_updates: int = 0
    presolve_fixings: int = 0
    presolve_pruned: int = 0
    cuts: int = 0
    root_cols_removed: int = 0
    root_rows_removed: int = 0
    warm_lp_solves: int = 0
    warm_lp_fallbacks: int = 0
    wall_time: float = 0.0
    jobs: int = 1
    retries: int = 0
    fallbacks: int = 0
    portfolio_runs: int = 0
    portfolio_heuristic_wins: int = 0
    portfolio_cross_fed: int = 0

    def record(self, stats: SolveStats) -> None:
        """Fold one solve's stats into the run counters."""
        self.solves += 1
        if stats.cache_hit:
            self.cache_hits += 1
            return
        self.cache_misses += 1
        for name in _SOLVE_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(stats, name))

    def record_fallback(self, report) -> None:
        """Count one degraded design (see :class:`repro.obs.FallbackReport`).

        ``retries`` on the report are already folded in via the solve's
        :class:`SolveStats`; only the degradation itself is new signal.
        """
        if report is not None and getattr(report, "degraded", False):
            self.fallbacks += 1

    def record_portfolio(self, report) -> None:
        """Count one portfolio race (see
        :class:`repro.runtime.portfolio.PortfolioReport`): the race itself,
        whether a heuristic entrant won the attribution, and whether an
        incumbent was cross-fed to the exact search."""
        if report is None:
            return
        self.portfolio_runs += 1
        if getattr(report, "winner", "bnb") != "bnb":
            self.portfolio_heuristic_wins += 1
        if getattr(report, "cross_fed", False):
            self.portfolio_cross_fed += 1

    def merge(self, other: "RunTelemetry | None") -> None:
        """Fold another run's counters into this one (``jobs`` keeps ours)."""
        if other is None:
            return
        for name in _MERGED_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict:
        return asdict(self)

    def counts(self) -> dict:
        """The deterministic, worker-count-invariant counters only.

        ``wall_time`` is excluded on purpose: it is the one field that
        varies run to run, so parallel-equivalence checks compare this view.
        """
        payload = asdict(self)
        payload.pop("wall_time")
        payload.pop("jobs")
        return payload

    def render(self) -> str:
        """One-line summary for report footers."""
        line = (
            f"{self.solves} solves ({self.cache_hits} cached), "
            f"{self.nodes} B&B nodes, {self.lp_solves} LPs, "
            f"{self.wall_time:.2f}s solver wall, jobs={self.jobs}"
        )
        if self.retries:
            line += f", {self.retries} retries"
        if self.fallbacks:
            line += f", {self.fallbacks} fallbacks"
        if self.portfolio_runs:
            line += f", {self.portfolio_runs} portfolio races"
        return line


#: What a fresh solve adds to the run: every counter shared with SolveStats.
_SOLVE_COUNTERS = tuple(
    spec.name
    for spec in fields(RunTelemetry)
    if spec.name in {stat.name for stat in fields(SolveStats)}
)

#: What merge() folds: every field but ``jobs``, which keeps the receiver's.
_MERGED_COUNTERS = tuple(spec.name for spec in fields(RunTelemetry) if spec.name != "jobs")
