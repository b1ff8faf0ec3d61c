"""Equivalence tests for the sparse/incremental hot path.

Node bound propagation runs over the nonzeros of the stacked rows, and the
wrapper curve packs each chain count once. Neither may change a single
result: the dense propagator and the O(W^2) wrapper search they replaced
are kept here, verbatim, as reference implementations, and every property
compares whole outputs against them.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ilp.model import MatrixForm
from repro.ilp.presolve import PropagationTables, propagate_bounds
from repro.soc import Core, build_d695, build_p93791, build_s1
from repro.wrapper import application_time_curve, design_wrapper, internal_scan_chains
from repro.wrapper.design import (
    DEFAULT_CHAIN_LENGTH,
    WrapperDesign,
    _pack_lpt,
    _spread_cells,
)

# ----------------------------------------------------------------------------
# Reference dense propagator (the pre-sparse implementation, verbatim).

_BIG = 1e15
LB_TIGHTENED = 0
UB_TIGHTENED = 1


class DensePropagationTables:
    def __init__(self, form: MatrixForm):
        n = form.num_vars
        blocks: list[np.ndarray] = []
        rhs_blocks: list[np.ndarray] = []
        if form.a_ub.size:
            blocks.append(form.a_ub)
            rhs_blocks.append(form.b_ub)
        if form.a_eq.size:
            blocks.append(form.a_eq)
            rhs_blocks.append(form.b_eq)
            blocks.append(-form.a_eq)
            rhs_blocks.append(-form.b_eq)
        self.has_objective_row = bool(np.any(form.c))
        if self.has_objective_row:
            blocks.append(form.c.reshape(1, n))
            rhs_blocks.append(np.array([math.inf]))
        self.c0 = form.c0
        if blocks:
            rows = np.vstack(blocks)
            rhs = np.concatenate(rhs_blocks)
        else:
            rows = np.zeros((0, n))
            rhs = np.zeros(0)
        self.rows = rows
        self.rhs = rhs
        self.pos = np.maximum(rows, 0.0)
        self.neg = np.minimum(rows, 0.0)
        self.pos_mask = rows > 0.0
        self.neg_mask = rows < 0.0
        with np.errstate(divide="ignore"):
            self.inv = np.where(rows != 0.0, 1.0 / np.where(rows != 0.0, rows, 1.0), 0.0)

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]


def _sequential_row_sums(products: np.ndarray) -> np.ndarray:
    """Each row summed left to right, one term at a time.

    The sparse propagator's ``np.bincount`` adds a row's terms in column
    order; a BLAS matrix-vector product or numpy's pairwise ``sum`` may
    group (or fuse) them differently and round the last bit differently.
    Adding the zero terms of a dense row changes nothing.
    """
    return np.cumsum(products, axis=1)[:, -1]


def dense_propagate_bounds(
    tables: DensePropagationTables,
    lb: np.ndarray,
    ub: np.ndarray,
    integer_mask: np.ndarray,
    cutoff: float | None = None,
    max_rounds: int = 4,
    tol: float = 1e-6,
) -> tuple[bool, list[tuple[int, int, float]]]:
    if tables.num_rows == 0:
        return True, []
    rhs = tables.rhs
    if tables.has_objective_row:
        rhs = rhs.copy()
        rhs[-1] = math.inf if cutoff is None else cutoff - tables.c0
    changes: list[tuple[int, int, float]] = []
    clb = np.clip(lb, -_BIG, _BIG)
    cub = np.clip(ub, -_BIG, _BIG)
    for _ in range(max_rounds):
        min_activity = _sequential_row_sums(tables.pos * clb) + _sequential_row_sums(
            tables.neg * cub
        )
        slack = rhs - min_activity
        if np.any(slack < -tol * (1.0 + np.abs(rhs))):
            return False, changes
        with np.errstate(invalid="ignore"):
            ratio = slack[:, None] * tables.inv
            ub_cand = np.where(tables.pos_mask, clb[None, :] + ratio, math.inf)
            lb_cand = np.where(tables.neg_mask, cub[None, :] + ratio, -math.inf)
        new_ub = np.min(ub_cand, axis=0) if ub_cand.size else cub
        new_lb = np.max(lb_cand, axis=0) if lb_cand.size else clb
        new_ub = np.where(integer_mask, np.floor(new_ub + tol), new_ub)
        new_lb = np.where(integer_mask, np.ceil(new_lb - tol), new_lb)
        improved_ub = np.flatnonzero(new_ub < cub - tol)
        improved_lb = np.flatnonzero(new_lb > clb + tol)
        if improved_ub.size == 0 and improved_lb.size == 0:
            break
        for j in improved_ub:
            value = float(new_ub[j])
            cub[j] = value
            ub[j] = value
            changes.append((int(j), UB_TIGHTENED, value))
        for j in improved_lb:
            value = float(new_lb[j])
            clb[j] = value
            lb[j] = value
            changes.append((int(j), LB_TIGHTENED, value))
        if np.any(clb > cub + tol):
            return False, changes
    return True, changes


def assert_same_propagation(form, lb, ub, cutoff, max_rounds, tol=1e-6):
    """Run both propagators on copies of one box; outputs must be identical."""
    dense_lb, dense_ub = lb.copy(), ub.copy()
    sparse_lb, sparse_ub = lb.copy(), ub.copy()
    expected = dense_propagate_bounds(
        DensePropagationTables(form), dense_lb, dense_ub, form.integer_mask,
        cutoff=cutoff, max_rounds=max_rounds, tol=tol,
    )
    got = propagate_bounds(
        PropagationTables(form), sparse_lb, sparse_ub, form.integer_mask,
        cutoff=cutoff, max_rounds=max_rounds, tol=tol,
    )
    assert got == expected
    np.testing.assert_array_equal(sparse_lb, dense_lb)
    np.testing.assert_array_equal(sparse_ub, dense_ub)
    return got


# ----------------------------------------------------------------------------
# Random MILPs. Coefficients are small integers, at most 8 in absolute sum
# per row, so activities built from clamped infinite bounds stay inside
# float64's exact integer range. Bounds tightened from those clamps can be
# fractional; the sparse code sums each row's positive and negative parts
# apart, each in column order, and then adds them, as the dense reference
# does, so the two agree bit for bit there too. Right-hand sides and
# cutoffs are arbitrary floats.

_ROW_BUDGET = 8


@st.composite
def sparse_row(draw, n):
    budget = _ROW_BUDGET
    row = []
    for _ in range(n):
        if budget == 0 or draw(st.booleans()):
            row.append(0)
            continue
        coef = draw(st.integers(-min(3, budget), min(3, budget)))
        budget -= abs(coef)
        row.append(coef)
    return row


@st.composite
def random_milp(draw):
    n = draw(st.integers(1, 7))
    m_ub = draw(st.integers(0, 4))
    m_eq = draw(st.integers(0, 3))
    rhs = st.floats(-12, 12, allow_nan=False).map(lambda v: round(v, 2))
    a_ub = np.array([draw(sparse_row(n)) for _ in range(m_ub)], dtype=float).reshape(m_ub, n)
    a_eq = np.array([draw(sparse_row(n)) for _ in range(m_eq)], dtype=float).reshape(m_eq, n)
    b_ub = np.array([draw(rhs) for _ in range(m_ub)])
    b_eq = np.array([float(draw(st.integers(-6, 6))) for _ in range(m_eq)])
    c = np.array(draw(sparse_row(n)), dtype=float)
    lb = np.array([draw(st.sampled_from([-math.inf, -3.0, -1.0, 0.0, 0.0, 1.0])) for _ in range(n)])
    ub = np.array(
        [
            math.inf if draw(st.booleans()) and draw(st.booleans()) else low_finite + draw(st.integers(0, 5))
            for low_finite in np.where(np.isfinite(lb), lb, -2.0)
        ]
    )
    integer_mask = np.array([draw(st.booleans()) for _ in range(n)])
    form = MatrixForm(
        c=c,
        c0=draw(st.sampled_from([0.0, 1.5, -2.0])),
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        lb=lb,
        ub=ub,
        integer_mask=integer_mask,
    )
    cutoff = draw(st.one_of(st.none(), st.floats(-15, 15, allow_nan=False)))
    max_rounds = draw(st.integers(1, 4))
    return form, cutoff, max_rounds


# Found by the property below while the reference summed rows with a BLAS
# matrix-vector product: round 2 gave an upper bound of 0.6666666666666667
# sparse against 0.6666666666666666 dense.
_BLAS_ROUNDING_CASE = (
    MatrixForm(
        c=np.zeros(3), c0=0.0, a_ub=np.zeros((0, 3)), b_ub=np.zeros(0),
        a_eq=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [-3.0, -1.0, 0.0]]),
        b_eq=np.array([0.0, 0.0, -1.0]), lb=np.full(3, -math.inf),
        ub=np.array([1.0, 0.0, -2.0]), integer_mask=np.zeros(3, dtype=bool),
    ),
    None,
    2,
)


class TestSparsePropagationMatchesDense:
    @settings(max_examples=400, deadline=None)
    @given(random_milp())
    @example(_BLAS_ROUNDING_CASE)
    def test_random_milps(self, case):
        form, cutoff, max_rounds = case
        assert_same_propagation(form, form.lb.copy(), form.ub.copy(), cutoff, max_rounds)

    def test_empty_form(self):
        form = MatrixForm(
            c=np.zeros(2), c0=0.0, a_ub=np.zeros((0, 2)), b_ub=np.zeros(0),
            a_eq=np.zeros((0, 2)), b_eq=np.zeros(0), lb=np.zeros(2),
            ub=np.ones(2), integer_mask=np.ones(2, dtype=bool),
        )
        assert assert_same_propagation(form, form.lb.copy(), form.ub.copy(), None, 4) == (True, [])

    def test_all_zero_row_proves_infeasible(self):
        form = MatrixForm(
            c=np.zeros(2), c0=0.0, a_ub=np.zeros((1, 2)), b_ub=np.array([-1.0]),
            a_eq=np.zeros((0, 2)), b_eq=np.zeros(0), lb=np.zeros(2),
            ub=np.ones(2), integer_mask=np.ones(2, dtype=bool),
        )
        feasible, _ = assert_same_propagation(form, form.lb.copy(), form.ub.copy(), None, 4)
        assert not feasible

    @pytest.mark.parametrize("soc_name,widths", [("S1", (16, 8, 8)), ("d695", (32, 16, 8))])
    def test_tam_formulation_branching_boxes(self, soc_name, widths):
        """Random branching boxes on a real assignment ILP, with and without cutoff."""
        from repro.core.formulation import build_assignment_ilp
        from repro.core.problem import DesignProblem
        from repro.tam.architecture import TamArchitecture

        soc = build_s1() if soc_name == "S1" else build_d695()
        problem = DesignProblem(soc, TamArchitecture(widths), timing="serial")
        form = build_assignment_ilp(problem).model.to_matrix_form()
        # Cutoffs around the makespan's area bound, where the objective row bites.
        area_bound = float(problem.times.min(axis=1).sum()) / len(widths)
        rng = np.random.default_rng(0)
        ints = np.flatnonzero(form.integer_mask)
        outcomes = set()
        for trial in range(60):
            lb, ub = form.lb.copy(), form.ub.copy()
            for j in rng.choice(ints, size=int(rng.integers(0, 6)), replace=False):
                lb[j] = ub[j] = float(rng.integers(0, 2))
            cutoff = None if trial % 3 == 0 else float(rng.uniform(0.9, 2.0)) * area_bound
            feasible, changes = assert_same_propagation(form, lb, ub, cutoff, int(rng.integers(1, 5)))
            outcomes.add((feasible, bool(changes)))
        # Every outcome shows up: tightened or not, feasible or pruned.
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


# ----------------------------------------------------------------------------
# Reference O(W^2) wrapper search (the pre-incremental implementation).


def reference_pack_lpt(items, bins):
    totals = [0] * bins
    for item in sorted(items, reverse=True):
        totals[totals.index(min(totals))] += item
    return totals


def reference_spread_cells(totals, cells):
    totals = list(totals)
    for _ in range(cells):
        totals[totals.index(min(totals))] += 1
    return totals


@functools.lru_cache(maxsize=None)
def reference_packing(chains, inputs, outputs, bins):
    """One chain count's in/out totals; pure, so memoized to keep the O(W^2) scan fast."""
    scan_totals = reference_pack_lpt(list(chains), bins)
    return reference_spread_cells(scan_totals, inputs), reference_spread_cells(scan_totals, outputs)


def reference_design_wrapper(core, width, chain_length=DEFAULT_CHAIN_LENGTH):
    chains = tuple(internal_scan_chains(core, max_length=chain_length))
    best = None
    best_time = math.inf
    for bins in range(1, width + 1):
        in_chains, out_chains = reference_packing(chains, core.num_inputs, core.num_outputs, bins)
        pad = (0,) * (width - bins)
        candidate = WrapperDesign(core.name, width, tuple(in_chains) + pad, tuple(out_chains) + pad)
        time = candidate.application_time(core.num_patterns)
        if time < best_time:
            best = candidate
            best_time = time
    return best


def make_core(name, inputs, outputs, flipflops, patterns, chains=None):
    return Core(
        name=name,
        num_inputs=inputs,
        num_outputs=outputs,
        num_flipflops=sum(chains) if chains is not None else flipflops,
        num_gates=100,
        num_patterns=patterns,
        test_width=8,
        test_power=1.0,
        scan_chains=tuple(chains) if chains is not None else None,
    )


class TestPackingPrimitives:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(0, 60), max_size=20), st.integers(1, 12))
    def test_heap_lpt_matches_linear_scan(self, items, bins):
        assert _pack_lpt(items, bins) == reference_pack_lpt(items, bins)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(0, 60), min_size=1, max_size=16), st.integers(0, 200))
    def test_water_fill_matches_cell_by_cell(self, totals, cells):
        assert _spread_cells(totals, cells) == reference_spread_cells(totals, cells)


class TestIncrementalWrapperMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 120),
        st.integers(0, 120),
        st.one_of(
            st.none(),
            st.lists(st.integers(1, 80), min_size=0, max_size=10),
        ),
        st.integers(0, 400),
        st.integers(1, 50),
    )
    def test_generated_cores_widths_1_to_64(self, inputs, outputs, chains, flipflops, patterns):
        core = make_core("gen", inputs, outputs, flipflops, patterns, chains)
        # Ask in a scrambled order so extension from a partial curve is exercised.
        for width in (7, 3, 64, 1, 33, *range(1, 65)):
            assert design_wrapper(core, width) == reference_design_wrapper(core, width)

    @pytest.mark.parametrize(
        "core",
        [
            make_core("comb", 40, 25, 0, 12),  # combinational: no internal chains
            make_core("rigid", 3, 2, 0, 30, chains=[100, 100, 37]),
            make_core("wide_io", 500, 350, 0, 9, chains=[12, 7, 7, 3]),
            make_core("balanced", 10, 8, 103, 20),
        ],
        ids=lambda core: core.name,
    )
    def test_hand_picked_cores(self, core):
        for width in range(1, 65):
            assert design_wrapper(core, width) == reference_design_wrapper(core, width)

    def test_s1_curves_to_195(self):
        for core in build_s1():
            expected = [reference_design_wrapper(core, w).application_time(core.num_patterns) for w in range(1, 196)]
            assert application_time_curve(core, 195) == expected

    def test_p93791_curves(self):
        for core in build_p93791():
            expected = [reference_design_wrapper(core, w).application_time(core.num_patterns) for w in range(1, 65)]
            assert application_time_curve(core, 64) == expected


class TestConcurrentCurveExtension:
    def test_threads_extending_one_curve_agree_with_reference(self):
        """Curves are shared process-wide; racing extensions must not lose or mix entries."""
        import sys
        import threading

        cores = [
            make_core(f"racy{i}", 37 + i, 21, 0, 11, chains=[40, 33, 33, 17, 9, 4 + i]) for i in range(12)
        ]
        widths = range(1, 49)
        expected = {(core.name, w): reference_design_wrapper(core, w) for core in cores for w in widths}
        failures = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait(timeout=30)
            # Every thread walks each fresh curve upward, so most calls extend it.
            for core in cores:
                for width in widths:
                    if design_wrapper(core, width) != expected[core.name, width]:
                        failures.append((core.name, width))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
