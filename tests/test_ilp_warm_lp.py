"""Tests for the revised dual simplex and warm-started node LPs.

Two layers: the LP engine itself is pinned against ``scipy.linprog``
(cold and warm-after-bound-change solves must agree on status and
objective), and the branch-and-bound integration is pinned by solving the
same models warm and cold — identical optima, with the warm counters
proving the dual simplex actually answered the node LPs. A third layer
pins the engine's factor cache: hits agree with fresh engines and scipy,
the slab stays inside its budget with LRU eviction, and a corrupted slot
is caught instead of trusted.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.core import DesignProblem, design, width_sweep
from repro.ilp import INTEGER, Model, Status, quicksum
from repro.ilp.simplex import (
    FACTOR_CACHE_BYTES,
    FACTOR_CACHE_SLOTS,
    Basis,
    FactorCache,
    RevisedSimplex,
)
from repro.obs import PresolvePolicy, SolvePolicy, SolverOptions

_RNG_CASES = 40


def _random_form(rng):
    """A random bounded LP as a MatrixForm (ub rows + optional eq row)."""
    n = int(rng.integers(2, 7))
    m_ub = int(rng.integers(1, 5))
    model = Model("rand")
    xs = [
        model.add_var(f"x{j}", lb=0, ub=float(rng.integers(1, 6)))
        for j in range(n)
    ]
    for _ in range(m_ub):
        coefs = rng.integers(-3, 6, size=n)
        rhs = float(rng.integers(1, 15))
        model.add_constr(quicksum(int(a) * x for a, x in zip(coefs, xs)) <= rhs)
    if rng.random() < 0.4:
        coefs = rng.integers(0, 3, size=n)
        if coefs.sum() > 0:
            rhs = float(rng.integers(0, 5))
            model.add_constr(
                quicksum(int(a) * x for a, x in zip(coefs, xs)) == rhs
            )
    obj = rng.integers(-5, 6, size=n)
    model.minimize(quicksum(int(p) * x for p, x in zip(obj, xs)))
    return model.to_matrix_form()


def _scipy_solve(form, lb, ub):
    return linprog(
        form.c,
        A_ub=form.a_ub if form.a_ub.size else None,
        b_ub=form.b_ub if form.a_ub.size else None,
        A_eq=form.a_eq if form.a_eq.size else None,
        b_eq=form.b_eq if form.a_eq.size else None,
        bounds=np.column_stack((lb, ub)),
        method="highs",
    )


class TestRevisedSimplexVsScipy:
    def test_cold_solves_match_scipy(self):
        rng = np.random.default_rng(7)
        mismatches = 0
        for _ in range(_RNG_CASES):
            form = _random_form(rng)
            engine = RevisedSimplex(form)
            ours = engine.solve(form.lb, form.ub)
            ref = _scipy_solve(form, form.lb, form.ub)
            if ref.status == 0:
                if ours.status != "optimal" or abs(
                    ours.objective - (ref.fun + form.c0)
                ) > 1e-6:
                    mismatches += 1
            elif ref.status == 2 and ours.status != "infeasible":
                mismatches += 1
        assert mismatches == 0

    def test_warm_resolve_after_bound_change_matches_scipy(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(_RNG_CASES):
            form = _random_form(rng)
            engine = RevisedSimplex(form)
            root = engine.solve(form.lb, form.ub)
            if root.status != "optimal":
                continue
            # Branch-like bound change: floor/ceil a random column.
            j = int(rng.integers(0, form.num_vars))
            lb, ub = form.lb.copy(), form.ub.copy()
            if rng.random() < 0.5:
                ub[j] = np.floor(root.x[j])
            else:
                lb[j] = np.ceil(root.x[j] + 1e-9)
            if lb[j] > ub[j]:
                continue
            warm = engine.solve(lb, ub, basis=root.basis)
            ref = _scipy_solve(form, lb, ub)
            if warm.status == "fallback":
                continue  # numerically allowed, the solver re-solves cold
            if ref.status == 0:
                assert warm.status == "optimal"
                assert warm.objective == pytest.approx(
                    ref.fun + form.c0, abs=1e-6
                )
            elif ref.status == 2:
                assert warm.status == "infeasible"
            checked += 1
        assert checked >= _RNG_CASES // 2

    def test_optimal_point_respects_bounds_and_rows(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            form = _random_form(rng)
            res = RevisedSimplex(form).solve(form.lb, form.ub)
            if res.status != "optimal":
                continue
            assert np.all(res.x >= form.lb - 1e-7)
            assert np.all(res.x <= form.ub + 1e-7)
            if form.a_ub.size:
                assert np.all(form.a_ub @ res.x <= form.b_ub + 1e-6)
            if form.a_eq.size:
                assert np.allclose(form.a_eq @ res.x, form.b_eq, atol=1e-6)

    def test_cutoff_prunes_only_provably_worse_nodes(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            form = _random_form(rng)
            engine = RevisedSimplex(form)
            exact = engine.solve(form.lb, form.ub)
            if exact.status != "optimal":
                continue
            above = engine.solve(form.lb, form.ub, cutoff=exact.objective + 1.0)
            assert above.status == "optimal"
            assert above.objective == pytest.approx(exact.objective, abs=1e-6)
            below = engine.solve(form.lb, form.ub, cutoff=exact.objective - 1.0)
            # Either the dual bound crossed the cutoff (proven prune) or the
            # solve finished and the caller compares objectives itself.
            if below.status == "cutoff":
                continue
            assert below.status == "optimal"
            assert below.objective >= exact.objective - 1e-6

    def test_stale_generation_basis_restarts_cleanly(self):
        rng = np.random.default_rng(23)
        form = _random_form(rng)
        engine = RevisedSimplex(form, generation=5)
        root = engine.solve(form.lb, form.ub)
        assert root.status == "optimal"
        assert root.basis is not None and root.basis.generation == 5
        # Even carrying the key of a cached factorization, a stale basis
        # restarts from the all-slack basis and never reaches the cache.
        stale = Basis(
            basic=root.basis.basic.copy(),
            status=root.basis.status.copy(),
            generation=4,
            key=root.basis.key,
        )
        assert stale.key in engine.factors
        res = engine.solve(form.lb, form.ub, basis=stale)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(root.objective, abs=1e-9)
        assert (engine.factors.hits, engine.factors.misses) == (0, 0)


def _warm_and_cold(model_factory, **solve_kwargs):
    warm = model_factory().solve(cache=False, **solve_kwargs)
    cold = model_factory().solve(
        cache=False,
        policy=SolvePolicy(solver=SolverOptions(warm_start=False)),
        **solve_kwargs,
    )
    return warm, cold


class TestWarmStartedBranchAndBound:
    def _knapsack(self):
        rng = np.random.default_rng(5)
        weights = rng.integers(5, 40, size=14).tolist()
        profits = rng.integers(5, 40, size=14).tolist()
        m = Model("knapsack")
        xs = [m.add_binary(f"k{i}") for i in range(len(weights))]
        m.add_constr(
            quicksum(w * x for w, x in zip(weights, xs)) <= int(sum(weights) * 0.4)
        )
        m.maximize(quicksum(p * x for p, x in zip(profits, xs)))
        return m

    def test_warm_matches_cold_on_knapsack(self):
        warm, cold = _warm_and_cold(self._knapsack)
        assert warm.status is Status.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective)
        assert warm.stats.warm_lp_solves > 0
        assert cold.stats.warm_lp_solves == 0

    def test_warm_composes_with_simplex_fallback_engine(self):
        warm, cold = _warm_and_cold(self._knapsack, lp_method="simplex")
        assert warm.objective == pytest.approx(cold.objective)
        assert warm.stats.warm_lp_solves > 0

    def test_warm_matches_cold_on_integer_bounds(self):
        def factory():
            m = Model()
            x = m.add_var("x", lb=1, ub=9, vartype=INTEGER)
            y = m.add_var("y", lb=0, ub=9, vartype=INTEGER)
            m.add_constr(3 * x + 5 * y <= 34)
            m.add_constr(2 * x - y >= 1)
            m.maximize(4 * x + 7 * y)
            return m

        warm, cold = _warm_and_cold(factory)
        assert warm.objective == pytest.approx(cold.objective)

    def test_seeded_s1_sweep_matches_cold_resolves(self, s1):
        """The acceptance sweep: warm-started node LPs reach the same
        optima as cold re-solves across an S1 width sweep."""
        cold_policy = SolvePolicy(
            solver=SolverOptions(
                root_presolve=PresolvePolicy.disabled(), warm_start=False
            )
        )
        warm_points = width_sweep(s1, 2, [8, 12, 16], timing="serial")
        cold_points = width_sweep(
            s1, 2, [8, 12, 16], timing="serial", policy=cold_policy
        )
        assert len(warm_points) == len(cold_points)
        for wp, cp in zip(warm_points, cold_points):
            assert wp.makespan == pytest.approx(cp.makespan)
        warm_total = sum(p.telemetry.warm_lp_solves for p in warm_points)
        fallbacks = sum(p.telemetry.warm_lp_fallbacks for p in warm_points)
        assert warm_total > 0
        # Fallbacks are allowed but must stay the exception.
        assert fallbacks <= warm_total // 10

    def test_power_constrained_design_warm_equals_cold(self, s1, arch3):
        problem = DesignProblem(
            soc=s1, arch=arch3, timing="serial", power_budget=3500.0
        )
        warm = design(problem, cache=False)
        cold = design(
            problem,
            policy=SolvePolicy(solver=SolverOptions(warm_start=False)),
            cache=False,
        )
        assert warm.makespan == pytest.approx(cold.makespan)
        assert warm.stats.warm_lp_solves > 0


def _stored_slot(engine, basis):
    """The slab slot currently holding ``basis``'s factorization."""
    slot = engine.factors.lookup(basis.key)
    assert slot is not None
    return slot


class TestFactorCache:
    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=40)
    def test_chained_hits_match_fresh_engine_and_scipy(self, seed, depth):
        """Walk a chain of child bound tightenings, each warm from its parent."""
        rng = np.random.default_rng(seed)
        form = _random_form(rng)
        engine = RevisedSimplex(form)
        lb, ub = form.lb.copy(), form.ub.copy()
        node = engine.solve(lb, ub)
        for _ in range(depth):
            if node.status != "optimal":
                break
            j = int(rng.integers(0, form.num_vars))
            if rng.random() < 0.5:
                ub[j] = min(ub[j], np.floor(node.x[j] - 0.25))
            else:
                lb[j] = max(lb[j], np.ceil(node.x[j] + 0.25))
            hits = engine.factors.hits
            node = engine.solve(lb, ub, basis=node.basis)
            if lb[j] <= ub[j]:
                assert engine.factors.hits == hits + 1
            fresh = RevisedSimplex(form).solve(lb, ub)
            ref = _scipy_solve(form, lb, ub) if np.all(lb <= ub) else None
            if node.status == "fallback" or fresh.status == "fallback":
                continue  # numerically allowed, the solver re-solves cold
            assert node.status == fresh.status
            if node.status == "optimal":
                assert node.objective == pytest.approx(fresh.objective, abs=1e-6)
                assert ref is not None and ref.status == 0
                assert node.objective == pytest.approx(ref.fun + form.c0, abs=1e-6)
            elif ref is not None:
                assert ref.status == 2

    def test_slot_count_respects_byte_budget(self):
        for m, width in [(3, 9), (40, 120), (173, 500), (800, 1600)]:
            cache = FactorCache(m, width)
            assert cache.slots <= FACTOR_CACHE_SLOTS
            assert cache.slots * 8 * (m * m + width) <= FACTOR_CACHE_BYTES
        assert FactorCache(3, 9).slots == FACTOR_CACHE_SLOTS
        assert FactorCache(800, 1600).slots == 0

    def test_slab_never_exceeds_budget_and_evicts_lru(self):
        m, width = 300, 700
        cache = FactorCache(m, width)
        assert 2 < cache.slots < 20
        binv, d = np.eye(m), np.zeros(width)
        keys = [cache.store(binv, d, 0) for _ in range(cache.slots)]
        assert len(cache) == cache.slots
        # Touch the oldest entry: the second-oldest becomes the LRU victim.
        assert cache.lookup(keys[0]) is not None
        newer = cache.store(binv, d, 0)
        assert keys[0] in cache and newer in cache
        assert keys[1] not in cache
        for _ in range(3 * cache.slots):
            cache.store(binv, d, 0)
            assert len(cache) == cache.slots
            assert cache.nbytes <= FACTOR_CACHE_BYTES
        assert cache.lookup(keys[0]) is None

    def test_engine_slab_stays_inside_budget_through_bnb(self, s1, arch3):
        engines = []
        original_init = RevisedSimplex.__init__

        def tracking_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            engines.append(self)

        problem = DesignProblem(soc=s1, arch=arch3, timing="serial", power_budget=3500.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RevisedSimplex, "__init__", tracking_init)
            design(problem, cache=False)
        assert engines
        assert sum(e.factors.hits for e in engines) > 0
        for engine in engines:
            assert engine.factors.nbytes <= FACTOR_CACHE_BYTES
            assert len(engine.factors) <= engine.factors.slots

    def _root(self):
        rng = np.random.default_rng(23)
        form = _random_form(rng)
        engine = RevisedSimplex(form)
        root = engine.solve(form.lb, form.ub)
        assert root.status == "optimal" and root.basis.key in engine.factors
        return form, engine, root

    def test_evicted_or_foreign_key_never_hits(self):
        form, engine, root = self._root()
        for _ in range(engine.factors.slots):
            engine.factors.store(np.eye(engine.m), np.zeros(engine.n + engine.m), 0)
        assert root.basis.key not in engine.factors
        hits = engine.factors.hits
        res = engine.solve(form.lb, form.ub, basis=root.basis)
        assert engine.factors.hits == hits
        assert res.objective == pytest.approx(root.objective, abs=1e-9)
        # A basis another engine produced carries a key this one never issued.
        other = RevisedSimplex(form)
        res = other.solve(form.lb, form.ub, basis=res.basis)
        assert other.factors.hits == 0 and other.factors.misses == 1
        assert res.objective == pytest.approx(root.objective, abs=1e-9)

    def test_zero_key_takes_the_inverting_path(self):
        form, engine, root = self._root()
        unkeyed = Basis(basic=root.basis.basic, status=root.basis.status)
        hits, misses = engine.factors.hits, engine.factors.misses
        res = engine.solve(form.lb, form.ub, basis=unkeyed)
        assert (engine.factors.hits, engine.factors.misses) == (hits, misses)
        assert res.objective == pytest.approx(root.objective, abs=1e-9)

    def test_corrupted_slot_falls_back_and_is_dropped(self):
        form, engine, root = self._root()
        engine.factors.binv[_stored_slot(engine, root.basis)] *= 1.5
        res = engine.solve(form.lb, form.ub, basis=root.basis)
        assert res.status == "fallback"
        assert root.basis.key not in engine.factors

    def test_corrupted_slots_never_change_bnb_optima(self, s1, arch3):
        """Every stored factorization is corrupted; B&B must still be exact."""
        original_store = FactorCache.store

        def corrupting_store(self, binv, d, age):
            key = original_store(self, binv, d, age)
            if key:
                self.binv[self._slot_of[key]] *= 1.5
            return key

        problem = DesignProblem(soc=s1, arch=arch3, timing="serial", power_budget=3500.0)
        reference = design(problem, backend="scipy", cache=False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FactorCache, "store", corrupting_store)
            corrupted = design(problem, cache=False)
        assert corrupted.makespan == pytest.approx(reference.makespan)
        assert corrupted.stats.warm_lp_fallbacks > 0

    def test_identical_design_runs_repeat_work_counters(self, s1, arch3):
        """Cache hits depend on the search alone, so reruns do equal work."""
        problem = DesignProblem(soc=s1, arch=arch3, timing="serial", power_budget=3500.0)

        def work(stats):
            out = stats.as_dict()
            for timing in ("wall_time", "lp_time"):
                out.pop(timing)
            return out

        first = design(problem, cache=False).stats
        second = design(problem, cache=False).stats
        assert first.warm_lp_solves > 0
        assert work(first) == work(second)
