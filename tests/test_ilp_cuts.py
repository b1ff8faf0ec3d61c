"""Tests for knapsack cover cuts and the branch-and-cut CutPolicy surface."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CutPolicy
from repro.ilp import Model, Status, quicksum
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.cuts import Cut, CutPool, append_cuts, generate_cover_cuts
from repro.ilp.lp import solve_matrix_lp


def fractional_knapsack_model():
    """A knapsack whose LP relaxation is fractional and cover-cuttable."""
    m = Model("frac-ks")
    weights = [5, 5, 5, 5]
    xs = [m.add_binary(f"x{i}") for i in range(4)]
    m.add_constr(quicksum(w * x for w, x in zip(weights, xs)) <= 12)
    m.maximize(quicksum((10 + i) * x for i, x in enumerate(xs)))
    return m, xs


class TestSeparation:
    def test_generates_violated_cut(self):
        m, _ = fractional_knapsack_model()
        form = m.to_matrix_form()
        relaxed = solve_matrix_lp(form)
        cuts = generate_cover_cuts(form, relaxed.x)
        assert cuts, "the fractional point must be separable"
        for row, rhs in cuts:
            assert row @ relaxed.x > rhs + 1e-6  # violated by x*
            # valid for every integer feasible point: any 3 items weigh 15 > 12
            assert rhs == pytest.approx(np.count_nonzero(row) - 1)

    def test_no_cut_at_integral_point(self):
        m, _ = fractional_knapsack_model()
        form = m.to_matrix_form()
        integral = np.array([1.0, 1.0, 0.0, 0.0, ])
        assert generate_cover_cuts(form, integral) == []

    def test_rows_with_negative_coeffs_skipped(self):
        m = Model()
        a, b = m.add_binary("a"), m.add_binary("b")
        m.add_constr(2 * a - b <= 1)
        m.maximize(a + b)
        form = m.to_matrix_form()
        assert generate_cover_cuts(form, np.array([0.9, 0.9])) == []

    def test_non_binary_rows_skipped(self):
        from repro.ilp import INTEGER

        m = Model()
        a = m.add_var("a", ub=3, vartype=INTEGER)
        b = m.add_binary("b")
        m.add_constr(2 * a + 2 * b <= 3)
        m.maximize(a + b)
        form = m.to_matrix_form()
        assert generate_cover_cuts(form, np.array([0.9, 0.6])) == []

    def test_append_cuts_grows_system(self):
        m, _ = fractional_knapsack_model()
        form = m.to_matrix_form()
        relaxed = solve_matrix_lp(form)
        cuts = generate_cover_cuts(form, relaxed.x)
        bigger = append_cuts(form, cuts)
        assert bigger.a_ub.shape[0] == form.a_ub.shape[0] + len(cuts)
        # Cut bound is tighter (cuts remove the fractional vertex).
        recut = solve_matrix_lp(bigger)
        assert recut.objective >= relaxed.objective - 1e-9  # min-sense bound improves

    def test_append_empty_is_identity(self):
        m, _ = fractional_knapsack_model()
        form = m.to_matrix_form()
        assert append_cuts(form, []) is form


class TestLiftedCovers:
    def test_lifting_extends_equal_weight_cover(self):
        # Equal weights: every item qualifies for the extension E(C), so the
        # lifted cut covers all four supports while the rhs stays |C| - 1.
        m, _ = fractional_knapsack_model()
        form = m.to_matrix_form()
        relaxed = solve_matrix_lp(form)
        [(row, rhs)] = generate_cover_cuts(form, relaxed.x, max_cuts=1, lift=True)
        assert np.count_nonzero(row) == 4
        assert rhs == pytest.approx(2.0)

    def test_lifted_cut_valid_for_all_integer_points(self):
        m, xs = fractional_knapsack_model()
        form = m.to_matrix_form()
        relaxed = solve_matrix_lp(form)
        cuts = generate_cover_cuts(form, relaxed.x, lift=True)
        assert cuts
        weights = np.array([5.0, 5.0, 5.0, 5.0])
        for bits in range(2 ** len(xs)):
            x = np.array([(bits >> i) & 1 for i in range(len(xs))], dtype=float)
            if weights @ x <= 12:  # integer feasible
                for row, rhs in cuts:
                    assert row @ x <= rhs + 1e-9


class TestCutsInBnb:
    def test_same_optimum_with_cuts(self):
        m, _ = fractional_knapsack_model()
        plain = m.solve()
        with_cuts = m.solve(cut_policy=CutPolicy())
        assert with_cuts.status is Status.OPTIMAL
        assert with_cuts.objective == pytest.approx(plain.objective)
        assert with_cuts.stats.cuts > 0
        assert with_cuts.stats.cut_summary()["cuts"] == with_cuts.stats.cuts

    def test_cuts_close_this_instance_at_root(self):
        # The 4-item equal-weight knapsack is closed by one cover cut round.
        m, _ = fractional_knapsack_model()
        sol = m.solve(cut_policy=CutPolicy(rounds=3, max_depth=0), dive=False)
        assert sol.stats.nodes <= m.solve(dive=False).stats.nodes

    def test_root_cuts_kwarg_rejected(self):
        # The retired spelling of cut_policy is an unknown solver kwarg.
        m, _ = fractional_knapsack_model()
        with pytest.raises(TypeError, match="root_cuts"):
            m.solve(root_cuts=3, cache=False)
        with pytest.raises(TypeError, match="root_cuts"):
            BranchAndBoundSolver(m, root_cuts=3)

    @given(st.integers(0, 200))
    @settings(max_examples=25)
    def test_random_knapsacks_match_scipy_with_cuts(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        weights = rng.integers(3, 20, size=n)
        profits = rng.integers(1, 25, size=n)
        cap = int(weights.sum() * 0.55)
        m = Model("rks")
        xs = [m.add_binary(f"x{i}") for i in range(n)]
        m.add_constr(quicksum(int(w) * x for w, x in zip(weights, xs)) <= cap)
        m.maximize(quicksum(int(p) * x for p, x in zip(profits, xs)))
        ours = m.solve(cut_policy=CutPolicy(rounds=5))
        ref = m.solve(backend="scipy")
        assert ours.objective == pytest.approx(ref.objective)
        assert m.check_solution(ours.rounded()) == []

    def test_tam_instances_unaffected(self, s1, arch3):
        # TAM ILPs have equality + mixed-sign rows; cover cuts must be a
        # no-op there and the optimum must not change.
        from repro.core import DesignProblem, build_assignment_ilp

        problem = DesignProblem(soc=s1, arch=arch3, timing="serial")
        model = build_assignment_ilp(problem).model
        plain = model.solve()
        cut = model.solve(cut_policy=CutPolicy())
        assert cut.objective == pytest.approx(plain.objective)


class TestCutPool:
    def _cut(self, cols, rhs=1.0, coefs=None):
        coefs = coefs or tuple(1.0 for _ in cols)
        return Cut(cols=tuple(cols), coefs=tuple(coefs), rhs=rhs, kind="clique")

    def test_dedupes_by_support_signature(self):
        pool = CutPool(max_size=8, max_age=3)
        assert pool.add(self._cut((0, 1)))
        assert not pool.add(self._cut((1, 0)))  # same support, reordered
        assert len(pool) == 1

    def test_capacity_cap_rejects_when_full(self):
        pool = CutPool(max_size=2, max_age=3)
        assert pool.add(self._cut((0, 1)))
        assert pool.add(self._cut((1, 2)))
        assert not pool.add(self._cut((2, 3)))
        assert len(pool) == 2

    def test_aging_drops_persistently_slack_cuts(self):
        pool = CutPool(max_size=8, max_age=1)
        pool.add(self._cut((0, 1)))  # x0 + x1 <= 1
        slack_x = np.array([0.0, 0.0, 0.0])
        binding_x = np.array([1.0, 0.0, 0.0])
        assert pool.age_and_prune(slack_x) == []  # age 1 == max_age: kept
        assert len(pool.age_and_prune(slack_x)) == 1  # age 2 > max_age: dropped
        assert len(pool) == 0
        pool.add(self._cut((0, 1)))
        pool.age_and_prune(slack_x)
        pool.age_and_prune(binding_x)  # binding resets the age counter
        assert pool.age_and_prune(slack_x) == []
        assert len(pool) == 1
