"""Node presolve for branch and bound: bound propagation + reduced-cost fixing.

Two families of tightenings run before (or instead of) a node's LP solve:

- **Integer bound propagation** (:func:`propagate_bounds`): classic activity
  reasoning over every row. For a row ``sum a_j x_j <= b`` with minimum
  activity ``m`` (each term at its cheapest bound), any variable with
  ``a_j > 0`` must satisfy ``x_j <= lb_j + (b - m) / a_j`` — and integer
  columns round that down. Equality rows participate as two inequalities,
  and when an incumbent exists the objective itself joins as the cutoff row
  ``c x <= z_inc - gap_tol - c0``, which is where most of the pruning power
  comes from on the TAM models (a core whose per-bus test time exceeds the
  incumbent can no longer ride that bus). A negative row slack proves the
  node infeasible with no LP solve at all.

- **Reduced-cost fixing** (:func:`reduced_cost_tighten`): with the root LP's
  reduced costs ``d`` and an incumbent cutoff ``z``, LP duality gives
  ``obj(x) >= z_root + d_j (x_j - root_lb_j)`` for any ``x`` feasible in the
  root relaxation, so a nonbasic-at-lower column with ``d_j > 0`` can move
  up by at most ``(z - z_root) / d_j`` before it cannot beat the incumbent
  (symmetrically for columns at their upper bound). The bounds are valid for
  the whole tree, so the solver applies them globally and re-applies them
  every time the incumbent improves.

Everything is vectorized and sparse: the per-:class:`~repro.ilp.model.MatrixForm`
row tables keep only the nonzeros of the stacked rows and are built once
(:class:`PropagationTables`, owned by the LP workspace). Each round pays a
few gathers, one bincount and two segmented reductions over those
nonzeros: no Python loop over rows or columns and no dense ``rows x n``
array.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ilp.model import MatrixForm

#: Clamp for infinite bounds inside activity arithmetic: big enough that no
#: real tightening is ever produced from a clamped bound, small enough that
#: products with row coefficients stay exact in float64.
_BIG = 1e15

#: Kind tags for recorded tightenings (shared with the delta-bound nodes).
LB_TIGHTENED = 0
UB_TIGHTENED = 1


class PropagationTables:
    """Sparse row tables for bound propagation over one ``MatrixForm``.

    The propagation matrix stacks ``A_ub``, both directions of ``A_eq``, and
    (when the objective has support) the objective row, whose right-hand
    side is the incumbent cutoff supplied per call. Only its nonzeros are
    kept: ``row``, ``col``, ``val`` and the reciprocal ``inv``, with the
    ``num_pos`` positive entries first and the negative ones after, each
    sign block in column-major order. A positive entry bounds its column
    from above and reads the column's lower bound in the minimum activity;
    a negative one the other way round. Each propagation round is a gather
    of one bound per nonzero, one ``bincount`` for the minimum activities,
    a gather of per-nonzero ratios and one segmented reduction per
    direction.
    """

    def __init__(self, form: MatrixForm):
        blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        rhs_blocks: list[np.ndarray] = []
        num_rows = 0
        if form.a_ub.size:
            r, c = np.nonzero(form.a_ub)
            blocks.append((r, c, form.a_ub[r, c]))
            rhs_blocks.append(form.b_ub)
            num_rows += form.a_ub.shape[0]
        if form.a_eq.size:
            r, c = np.nonzero(form.a_eq)
            v = form.a_eq[r, c]
            m_eq = form.a_eq.shape[0]
            blocks.append((r + num_rows, c, v))
            blocks.append((r + num_rows + m_eq, c, -v))
            rhs_blocks.append(form.b_eq)
            rhs_blocks.append(-form.b_eq)
            num_rows += 2 * m_eq
        self.has_objective_row = bool(np.any(form.c))
        if self.has_objective_row:
            c = np.flatnonzero(form.c)
            blocks.append((np.full(c.size, num_rows), c, form.c[c]))
            rhs_blocks.append(np.array([math.inf]))
            num_rows += 1
        self.c0 = form.c0
        self.num_rows = num_rows
        self.rhs = np.concatenate(rhs_blocks) if rhs_blocks else np.zeros(0)
        if blocks:
            row = np.concatenate([b[0] for b in blocks]).astype(np.intp)
            col = np.concatenate([b[1] for b in blocks]).astype(np.intp)
            val = np.concatenate([b[2] for b in blocks]).astype(float)
        else:
            row = col = np.zeros(0, dtype=np.intp)
            val = np.zeros(0)
        # Positive block first, then negative; columns ascending within each
        # block and rows ascending within each column (lexsort is stable).
        order = np.lexsort((col, val < 0.0))
        self.row = row[order]
        self.col = col[order]
        self.val = val[order]
        self.inv = 1.0 / self.val
        k = self.num_pos = int(np.count_nonzero(self.val > 0.0))
        # The activity bincount runs over 2 * num_rows bins, negative terms
        # shifted up by num_rows, so the positive and negative parts of a
        # row are summed apart and then added: ``pos @ lb + neg @ ub``.
        self.sum_bins = self.row.copy()
        self.sum_bins[k:] += num_rows
        # Segment starts and owning columns for the per-column reductions.
        self.ub_starts, self.ub_cols = _segments(self.col[:k])
        self.lb_starts, self.lb_cols = _segments(self.col[k:])


def _segments(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets of each run of equal values in sorted ``cols``, and the values."""
    if cols.size == 0:
        return np.zeros(0, dtype=np.intp), cols
    starts = np.flatnonzero(np.concatenate(([True], cols[1:] != cols[:-1])))
    return starts, cols[starts]


def propagate_bounds(
    tables: PropagationTables,
    lb: np.ndarray,
    ub: np.ndarray,
    integer_mask: np.ndarray,
    cutoff: float | None = None,
    max_rounds: int = 4,
    tol: float = 1e-6,
) -> tuple[bool, list[tuple[int, int, float]]]:
    """Tighten ``lb``/``ub`` in place; returns ``(feasible, tightenings)``.

    ``cutoff`` is an objective-value cutoff (incumbent minus gap tolerance,
    in the solved minimization sense *including* the constant offset); when
    given and the form has an objective row, solutions at least that bad are
    propagated away. Each recorded tightening is ``(column, kind, value)``
    with ``kind`` one of :data:`LB_TIGHTENED` / :data:`UB_TIGHTENED` — the
    exact delta layout the branch-and-bound node chains store.
    """
    if tables.num_rows == 0:
        return True, []
    rhs = tables.rhs
    if tables.has_objective_row:
        rhs = rhs.copy()
        rhs[-1] = math.inf if cutoff is None else cutoff - tables.c0
    changes: list[tuple[int, int, float]] = []
    clb = np.clip(lb, -_BIG, _BIG)
    cub = np.clip(ub, -_BIG, _BIG)
    m, k = tables.num_rows, tables.num_pos
    row, val, inv = tables.row, tables.val, tables.inv
    ub_cols, lb_cols = tables.ub_cols, tables.lb_cols
    ub_int, lb_int = integer_mask[ub_cols], integer_mask[lb_cols]
    infeasible_below = -tol * (1.0 + np.abs(rhs))
    # Per nonzero: the bound its column contributes to the minimum activity,
    # which is also the base of that column's candidate bound.
    bound = np.empty(val.size)
    pos_bound, neg_bound = bound[:k], bound[k:]
    pos_cols, neg_cols = tables.col[:k], tables.col[k:]
    for _ in range(max_rounds):
        np.take(clb, pos_cols, out=pos_bound)
        np.take(cub, neg_cols, out=neg_bound)
        sums = np.bincount(tables.sum_bins, val * bound, 2 * m)
        slack = rhs - (sums[:m] + sums[m:])
        if np.any(slack < infeasible_below):
            return False, changes
        cand = bound + slack[row] * inv
        # Only columns with an entry of the right sign can move; the rest
        # would reduce to +-inf, which never tightens.
        new_ub = np.minimum.reduceat(cand[:k], tables.ub_starts) if ub_cols.size else cand[:0]
        new_lb = np.maximum.reduceat(cand[k:], tables.lb_starts) if lb_cols.size else cand[:0]
        new_ub = np.where(ub_int, np.floor(new_ub + tol), new_ub)
        new_lb = np.where(lb_int, np.ceil(new_lb - tol), new_lb)
        hit_ub = new_ub < cub[ub_cols] - tol
        hit_lb = new_lb > clb[lb_cols] + tol
        if not hit_ub.any() and not hit_lb.any():
            break
        for j, value in zip(ub_cols[hit_ub].tolist(), new_ub[hit_ub].tolist()):
            cub[j] = value
            ub[j] = value
            changes.append((j, UB_TIGHTENED, value))
        for j, value in zip(lb_cols[hit_lb].tolist(), new_lb[hit_lb].tolist()):
            clb[j] = value
            lb[j] = value
            changes.append((j, LB_TIGHTENED, value))
        if np.any(clb > cub + tol):
            return False, changes
    return True, changes


def reduced_cost_tighten(
    reduced_costs: np.ndarray,
    root_lb: np.ndarray,
    root_ub: np.ndarray,
    root_objective: float,
    cutoff: float,
    lb: np.ndarray,
    ub: np.ndarray,
    integer_mask: np.ndarray,
    eps: float = 1e-7,
    tol: float = 1e-6,
) -> int:
    """Reduced-cost fixing against ``cutoff``; tightens ``lb``/``ub`` in place.

    ``root_lb``/``root_ub`` are the bounds the root LP was solved under and
    ``root_objective`` its optimum (minimization sense). Only integer columns
    are tightened — the rounding is where fixing beats plain dual bounds.
    Returns the number of bounds tightened; resulting ``lb > ub`` simply
    means no improving solution touches that column range, which the caller
    treats as a (correct) subtree prune.
    """
    gap = cutoff - root_objective
    if not np.isfinite(gap) or gap < 0.0:
        return 0
    tightened = 0
    up_cols = np.flatnonzero(
        integer_mask & (reduced_costs > eps) & np.isfinite(root_lb)
    )
    if up_cols.size:
        cand = root_lb[up_cols] + np.floor(gap / reduced_costs[up_cols] + tol)
        better = cand < ub[up_cols] - 0.5
        cols = up_cols[better]
        ub[cols] = cand[better]
        tightened += int(cols.size)
    down_cols = np.flatnonzero(
        integer_mask & (reduced_costs < -eps) & np.isfinite(root_ub)
    )
    if down_cols.size:
        cand = root_ub[down_cols] - np.floor(gap / -reduced_costs[down_cols] + tol)
        better = cand > lb[down_cols] + 0.5
        cols = down_cols[better]
        lb[cols] = cand[better]
        tightened += int(cols.size)
    return tightened
