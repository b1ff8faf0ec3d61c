"""SolvePolicy semantics: budgets, retries, degradation, cache keying.

Covers the resilient anytime-solve path end to end: policy validation and
backend-option mapping, rejection of the removed legacy kwargs,
transient-error retry via a fault-injection backend, heuristic fallback
with provenance, the capped-solve cache-key regression, incumbent
checkpointing, and the parallel metrics-equivalence invariant.
"""

from __future__ import annotations

import pytest

from repro.core import DesignProblem, design, lpt_assignment, width_sweep
from repro.ilp import Model, quicksum
from repro.ilp.model import register_backend, unregister_backend
from repro.ilp.solution import Status
from repro.obs import (
    DEFAULT_CUT_POLICY,
    DEFAULT_PRESOLVE_POLICY,
    CheckpointStore,
    CutPolicy,
    FallbackReport,
    PresolvePolicy,
    SolvePolicy,
    SolverOptions,
    trace_solve,
    use_metrics,
)
from repro.runtime import RunTelemetry, SolutionCache
from repro.util.errors import SolverError, TransientSolverError


def knapsack_model() -> Model:
    weights = [12, 7, 11, 8, 9]
    profits = [24, 13, 23, 15, 16]
    model = Model("knapsack")
    take = [model.add_binary(f"take_{i}") for i in range(len(weights))]
    model.add_constr(quicksum(w * t for w, t in zip(weights, take)) <= 26)
    model.maximize(quicksum(p * t for p, t in zip(profits, take)))
    return model


class TestPolicyObject:
    def test_validation_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            SolvePolicy(deadline=0)
        with pytest.raises(ValueError):
            SolvePolicy(node_budget=-1)
        with pytest.raises(ValueError):
            SolvePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            SolvePolicy(fallback=("greedy",))

    def test_fallback_coerced_to_tuple(self):
        policy = SolvePolicy(fallback=["lpt"])
        assert policy.fallback == ("lpt",)
        assert policy.degrades

    def test_capped_and_degrades_flags(self):
        assert not SolvePolicy().is_capped
        assert SolvePolicy(node_budget=5).is_capped
        assert SolvePolicy(deadline=1.0).is_capped
        assert not SolvePolicy(fallback=()).degrades

    def test_backend_options_mapping(self):
        policy = SolvePolicy(deadline=2.0, node_budget=7, gap_tol=0.5)
        assert policy.backend_options("bnb") == {
            "node_limit": 7,
            "time_limit": 2.0,
            "gap_tol": 0.5,
        }
        # scipy understands only a time limit.
        assert policy.backend_options("scipy") == {"time_limit": 2.0}

    def test_cache_token_covers_only_effort_fields(self):
        a = SolvePolicy(node_budget=5, max_retries=3, fallback=())
        b = SolvePolicy(node_budget=5)
        c = SolvePolicy(node_budget=6)
        assert a.cache_token() == b.cache_token()
        assert a.cache_token() != c.cache_token()

    def test_dict_round_trip(self):
        policy = SolvePolicy(deadline=1.5, node_budget=3, fallback=("lpt",))
        assert SolvePolicy.from_dict(policy.as_dict()) == policy

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="node_limit"):
            SolvePolicy.from_dict({"node_limit": 3})

    def test_policy_is_picklable(self):
        import pickle

        policy = SolvePolicy(deadline=1.0, fallback=("lpt",))
        assert pickle.loads(pickle.dumps(policy)) == policy


class TestCutPolicyObject:
    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            CutPolicy(rounds=-1)
        with pytest.raises(ValueError):
            CutPolicy(max_cuts_per_round=0)
        with pytest.raises(ValueError):
            CutPolicy(min_violation=-1.0)
        with pytest.raises(ValueError):
            CutPolicy(max_pool=0)

    def test_enabled_flag(self):
        assert DEFAULT_CUT_POLICY.enabled
        assert not CutPolicy.disabled().enabled
        assert not CutPolicy(clique=False, cover=False).enabled
        assert CutPolicy(rounds=0, max_depth=2).enabled  # in-tree only

    def test_dict_round_trip_and_unknown_keys(self):
        policy = CutPolicy(rounds=5, clique=False, max_depth=1)
        assert CutPolicy.from_dict(policy.as_dict()) == policy
        with pytest.raises(ValueError, match="gomory"):
            CutPolicy.from_dict({"gomory": True})

    def test_cache_token_distinguishes_every_field(self):
        base = CutPolicy()
        tokens = {base.cache_token()}
        for change in (
            {"rounds": 9},
            {"max_cuts_per_round": 9},
            {"clique": False},
            {"cover": False},
            {"max_depth": 9},
            {"min_violation": 0.5},
            {"max_pool": 9},
            {"max_age": 9},
        ):
            tokens.add(base.with_overrides(**change).cache_token())
        assert len(tokens) == 9


class TestPresolvePolicyObject:
    def test_validation_rejects_bad_rounds(self):
        with pytest.raises(ValueError):
            PresolvePolicy(rounds=-1)

    def test_enabled_flag(self):
        assert DEFAULT_PRESOLVE_POLICY.enabled
        assert not PresolvePolicy.disabled().enabled
        assert not PresolvePolicy(
            bound_tighten=False,
            dual_fix=False,
            singleton_cols=False,
            coeff_tighten=False,
            row_cleanup=False,
        ).enabled
        assert PresolvePolicy(rounds=1, bound_tighten=False).enabled

    def test_dict_round_trip_and_unknown_keys(self):
        policy = PresolvePolicy(rounds=2, singleton_cols=False)
        assert PresolvePolicy.from_dict(policy.as_dict()) == policy
        with pytest.raises(ValueError, match="probing"):
            PresolvePolicy.from_dict({"probing": True})

    def test_cache_token_distinguishes_every_field(self):
        base = PresolvePolicy()
        tokens = {base.cache_token()}
        for change in (
            {"rounds": 9},
            {"bound_tighten": False},
            {"dual_fix": False},
            {"singleton_cols": False},
            {"coeff_tighten": False},
            {"row_cleanup": False},
        ):
            tokens.add(base.with_overrides(**change).cache_token())
        assert len(tokens) == 7

    def test_policy_is_picklable(self):
        import pickle

        policy = PresolvePolicy(rounds=1, dual_fix=False)
        assert pickle.loads(pickle.dumps(policy)) == policy


class TestSolverOptionsBlock:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(branching="steepest")
        with pytest.raises(TypeError):
            SolverOptions(cuts={"rounds": 3})
        with pytest.raises(TypeError):
            SolverOptions(root_presolve={"rounds": 2})
        with pytest.raises(TypeError):
            SolverOptions(warm_start="yes")
        with pytest.raises(ValueError):
            SolverOptions(checkpoint_interval=0)

    def test_presolve_and_warm_start_forwarding(self):
        block = SolverOptions(
            root_presolve=PresolvePolicy.disabled(), warm_start=False
        )
        options = block.backend_options("bnb")
        assert options["root_presolve"] == PresolvePolicy.disabled()
        # The solver's own `warm_start` kwarg is an incumbent-values hint;
        # the LP-basis toggle travels under a distinct name.
        assert options["lp_warm_start"] is False
        assert "warm_start" not in options
        assert block.backend_options("scipy") == {}

    def test_presolve_and_warm_start_shape_cache_token(self):
        bare = SolverOptions()
        presolve_off = SolverOptions(root_presolve=PresolvePolicy.disabled())
        warm_off = SolverOptions(warm_start=False)
        tokens = {b.cache_token() for b in (bare, presolve_off, warm_off)}
        assert len(tokens) == 3

    def test_nested_presolve_dict_round_trip(self):
        block = SolverOptions(
            root_presolve=PresolvePolicy(rounds=2, coeff_tighten=False),
            warm_start=True,
        )
        assert SolverOptions.from_dict(block.as_dict()) == block

    def test_backend_options_forwarding(self):
        block = SolverOptions(presolve=False, cuts=CutPolicy(rounds=2))
        options = block.backend_options("bnb")
        assert options["presolve"] is False
        assert options["cut_policy"] == CutPolicy(rounds=2)
        assert "branching" not in options
        # non-bnb backends understand none of these knobs
        assert block.backend_options("scipy") == {}

    def test_policy_carries_solver_block_to_backend(self):
        policy = SolvePolicy(
            node_budget=7, solver=SolverOptions(branching="first", cuts=CutPolicy())
        )
        options = policy.backend_options("bnb")
        assert options["node_limit"] == 7
        assert options["branching"] == "first"
        assert options["cut_policy"] == CutPolicy()
        assert policy.backend_options("scipy") == {}

    def test_cache_token_covers_the_block(self):
        bare = SolvePolicy(node_budget=5)
        cuts_on = SolvePolicy(node_budget=5, solver=SolverOptions(cuts=CutPolicy()))
        cuts_off = SolvePolicy(
            node_budget=5, solver=SolverOptions(cuts=CutPolicy.disabled())
        )
        tokens = {p.cache_token() for p in (bare, cuts_on, cuts_off)}
        assert len(tokens) == 3

    def test_nested_dict_round_trip(self):
        policy = SolvePolicy(
            deadline=1.5,
            solver=SolverOptions(
                presolve=True, branching="pseudocost", cuts=CutPolicy(max_depth=1)
            ),
        )
        assert SolvePolicy.from_dict(policy.as_dict()) == policy

    def test_flat_keys_rejected(self):
        # The flat solver spellings are unknown SolvePolicy fields: they
        # belong under the nested solver block (SolverOptions / CutPolicy).
        for key in ("presolve", "branching", "root_cuts", "checkpoint_interval"):
            with pytest.raises(ValueError, match=f"unknown SolvePolicy field.*{key}"):
                SolvePolicy.from_dict({"node_budget": 3, key: 1})

    def test_flat_and_nested_keys_rejected(self):
        payload = {"presolve": False, "solver": {"presolve": True}}
        with pytest.raises(ValueError, match="presolve"):
            SolvePolicy.from_dict(payload)

    def test_block_is_picklable(self):
        import pickle

        policy = SolvePolicy(solver=SolverOptions(cuts=CutPolicy(rounds=1)))
        assert pickle.loads(pickle.dumps(policy)) == policy


class TestLegacyKwargRemoval:
    def test_model_solve_rejects_node_limit(self):
        model = knapsack_model()
        with pytest.raises(TypeError, match="SolvePolicy"):
            model.solve(node_limit=1000, cache=False)

    def test_design_rejects_time_limit(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        with pytest.raises(TypeError, match="SolvePolicy"):
            design(problem, time_limit=60.0, cache=False)

    def test_rejection_happens_even_with_a_policy(self):
        model = knapsack_model()
        with pytest.raises(TypeError, match="SolvePolicy"):
            model.solve(policy=SolvePolicy(node_budget=5), node_limit=3, cache=False)


class FlakyBackend:
    """Fault-injection backend: transient failures for the first N calls."""

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0

    def __call__(self, model, **options):
        from repro.ilp.model import _solve_bnb

        self.calls += 1
        if self.calls <= self.failures:
            raise TransientSolverError(f"injected fault #{self.calls}")
        return _solve_bnb(model, **options)


class TestRetries:
    def test_retry_recovers_from_transient_errors(self):
        flaky = FlakyBackend(failures=2)
        register_backend("flaky", flaky)
        try:
            solution = knapsack_model().solve(
                backend="flaky",
                cache=False,
                policy=SolvePolicy(max_retries=2, retry_backoff=0.0),
            )
        finally:
            unregister_backend("flaky")
        assert solution.status is Status.OPTIMAL
        assert flaky.calls == 3
        assert solution.stats.retries == 2

    def test_exhausted_retries_reraise(self):
        flaky = FlakyBackend(failures=3)
        register_backend("flaky", flaky)
        try:
            with pytest.raises(TransientSolverError):
                knapsack_model().solve(
                    backend="flaky",
                    cache=False,
                    policy=SolvePolicy(max_retries=1, retry_backoff=0.0),
                )
        finally:
            unregister_backend("flaky")
        assert flaky.calls == 2

    def test_no_policy_means_no_retry(self):
        flaky = FlakyBackend(failures=1)
        register_backend("flaky", flaky)
        try:
            with pytest.raises(TransientSolverError):
                knapsack_model().solve(backend="flaky", cache=False)
        finally:
            unregister_backend("flaky")
        assert flaky.calls == 1

    def test_retry_metrics_are_counted(self):
        flaky = FlakyBackend(failures=1)
        register_backend("flaky", flaky)
        try:
            with use_metrics() as metrics:
                knapsack_model().solve(
                    backend="flaky",
                    cache=False,
                    policy=SolvePolicy(max_retries=1, retry_backoff=0.0),
                )
        finally:
            unregister_backend("flaky")
        assert metrics.counter("solve.transient_errors").value == 1
        assert metrics.counter("solve.retries").value == 1


class TestDegradation:
    def test_budget_exhaustion_returns_incumbent(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        result = design(problem, policy=SolvePolicy(node_budget=1), cache=False)
        assert result.status is Status.FEASIBLE
        assert result.provenance == "incumbent"
        assert result.fallback is not None and result.fallback.degraded
        # The incumbent is a real, validated assignment.
        assert not problem.validate(result.assignment)

    def test_no_incumbent_falls_back_to_lpt(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        with use_metrics() as metrics:
            result = design(
                problem, policy=SolvePolicy(node_budget=1), dive=False, cache=False
            )
        assert result.status is Status.FEASIBLE
        assert result.provenance == "lpt"
        assert result.makespan == pytest.approx(lpt_assignment(problem).makespan)
        steps = [s["step"] for s in result.fallback.ladder]
        assert steps[0] == "exact" and "lpt" in steps
        assert metrics.counter("design.fallbacks").value == 1

    def test_empty_ladder_raises_like_legacy(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        with pytest.raises(SolverError):
            design(
                problem,
                policy=SolvePolicy(node_budget=1, fallback=()),
                dive=False,
                cache=False,
            )

    def test_exact_solve_reports_exact_provenance(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        result = design(problem, policy=SolvePolicy(deadline=600.0), cache=False)
        assert result.status is Status.OPTIMAL
        assert result.provenance == "exact"
        assert not result.fallback.degraded

    def test_fallback_recorded_in_run_telemetry(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        result = design(
            problem, policy=SolvePolicy(node_budget=1), dive=False, cache=False
        )
        telemetry = RunTelemetry()
        telemetry.record(result.stats)
        telemetry.record_fallback(result.fallback)
        assert telemetry.fallbacks == 1
        assert "1 fallbacks" in telemetry.render()

    def test_fallback_report_renders_provenance(self):
        report = FallbackReport(source="sa", reason="budget", retries=1)
        report.record_step("exact", "no_incumbent")
        report.record_step("sa", "ok")
        text = report.render()
        assert "source=sa" in text and "retries=1" in text and "exact:no_incumbent" in text


class TestCacheKeying:
    def test_truncated_solve_is_not_replayed_for_uncapped_request(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        cache = SolutionCache()
        capped = design(problem, policy=SolvePolicy(node_budget=1), cache=cache)
        assert capped.status is Status.FEASIBLE
        exact = design(problem, cache=cache)
        assert exact.status is Status.OPTIMAL
        assert exact.makespan <= capped.makespan + 1e-9

    def test_same_capped_policy_hits_the_cache(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        cache = SolutionCache()
        policy = SolvePolicy(node_budget=1)
        design(problem, policy=policy, cache=cache)
        misses = cache.misses
        replay = design(problem, policy=policy, cache=cache)
        assert cache.hits >= 1
        assert cache.misses == misses
        assert replay.stats.cache_hit

    def test_uncapped_policy_shares_key_with_no_policy(self, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        cache = SolutionCache()
        design(problem, cache=cache)
        replay = design(
            problem, policy=SolvePolicy(max_retries=2), cache=cache
        )
        assert replay.stats.cache_hit


class TestCheckpointing:
    def test_store_keeps_best_objective(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("fp", [1.0, 0.0], objective=10.0)
        store.save("fp", [0.0, 1.0], objective=20.0)  # worse: ignored
        payload = store.load("fp")
        assert payload["objective"] == 10.0
        assert payload["values"] == [1.0, 0.0]
        assert store.load("missing") is None

    def test_bnb_resumes_from_checkpoint(self, tmp_path, s1, arch3):
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        seed_policy = SolvePolicy(node_budget=1, checkpoint_dir=str(tmp_path))
        first = design(problem, policy=seed_policy, cache=False)
        assert first.status is Status.FEASIBLE  # incumbent was checkpointed

        resume_policy = SolvePolicy(checkpoint_dir=str(tmp_path))
        with trace_solve() as tracer:
            second = design(problem, policy=resume_policy, cache=False)
        assert second.status is Status.OPTIMAL
        resumed = [
            e for s in tracer.spans for e in s.events if e["name"] == "checkpoint_resume"
        ]
        assert resumed, "expected the warm incumbent to be resumed"


class TestCheckpointDebounce:
    def _solver(self, tmp_path, interval):
        from repro.ilp.branch_and_bound import BranchAndBoundSolver

        model = knapsack_model()
        return BranchAndBoundSolver(
            model,
            dive=False,
            checkpoint_dir=str(tmp_path),
            checkpoint_interval=interval,
        )

    def _count_saves(self, monkeypatch):
        calls = []
        original = CheckpointStore.save

        def counting_save(self, fingerprint, values, objective):
            calls.append(objective)
            return original(self, fingerprint, values, objective)

        monkeypatch.setattr(CheckpointStore, "save", counting_save)
        return calls

    def test_interval_throttles_saves_but_final_incumbent_persists(
        self, tmp_path, monkeypatch
    ):
        calls = self._count_saves(monkeypatch)
        solver = self._solver(tmp_path, interval=3600.0)
        solution = solver.solve()
        assert solution.status is Status.OPTIMAL
        assert solution.stats.incumbent_updates >= 2
        # First incumbent writes immediately; later improvements fall inside
        # the (huge) interval, and only the final flush writes again.
        assert len(calls) <= 2
        payload = solver._checkpoints.load(solver._fingerprint)
        assert payload is not None
        assert payload["objective"] == pytest.approx(-solution.objective)

    def test_zero_interval_saves_every_improvement(self, tmp_path, monkeypatch):
        calls = self._count_saves(monkeypatch)
        solver = self._solver(tmp_path, interval=0.0)
        solution = solver.solve()
        assert solution.status is Status.OPTIMAL
        assert len(calls) == solution.stats.incumbent_updates


class TestParallelEquivalence:
    def test_jobs_do_not_change_aggregate_metrics(self, s1):
        aggregates = []
        for jobs in (1, 2):
            points = width_sweep(
                s1, 2, [8, 10, 12], timing="serial", jobs=jobs
            )
            total = RunTelemetry(jobs=jobs)
            for point in points:
                total.merge(point.telemetry)
            aggregates.append(total.counts())
        assert aggregates[0] == aggregates[1]
