"""From-scratch LP engines: a tableau simplex and a revised dual simplex.

Two engines live here, promised in DESIGN.md so the whole reproduction can
run with zero reliance on external solver behaviour:

- :func:`solve_lp_simplex` — a dense two-phase *tableau* simplex with
  Bland's anti-cycling rule. Cold-start only; it reduces the bounded form
  to standard form (shift/split variables, explicit slack rows) and is the
  fully inspectable reference engine, cross-checked against
  ``scipy.optimize.linprog`` on randomized instances.

- :class:`RevisedSimplex` — a bounded-variable *revised dual* simplex that
  exposes and accepts a :class:`Basis`. Branch and bound re-solves a child
  node's LP warm from the parent basis: a child differs from its parent by
  bound tightenings only, which leave the parent's reduced costs (and
  therefore dual feasibility) intact, so reoptimization typically takes a
  handful of dual pivots instead of a cold solve. An objective ``cutoff``
  turns the monotone dual bound into an early node prune. Anything
  numerically doubtful — singular basis, dual infeasibility that status
  flips cannot repair, tiny pivots, iteration cap — returns a ``fallback``
  result and the caller re-solves cold (see DESIGN.md §13).

  Both children of a node restart from the same parent basis, so every
  optimal solve leaves its final factorization ``(B^-1, d, age)`` in a
  :class:`FactorCache` under a fresh :attr:`Basis.key`; a child whose key
  still hits skips the ``O(m^3)`` inversion and the pricing pass. The
  cache is a bounded LRU over one preallocated slab per engine
  (``FACTOR_CACHE_BYTES``): one array per cached basis fragmented the
  allocator's heap badly enough (8x the minor page faults) to slow bound
  propagation by as much as the cache saved. Within a solve, pivots update
  ``B^-1`` in place (one BLAS rank-1 update) and the reduced costs
  incrementally along the pivot row; ``d`` is re-priced from scratch at
  every refactorization and at every optimal return, and the refactor
  cadence counts updates carried across solves.

Both engines accept the general bounded form

    min c'x   s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  lb <= x <= ub
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger

from repro.ilp.model import MatrixForm

_TOL = 1e-9


@dataclass
class SimplexResult:
    """Outcome of a simplex solve."""

    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: np.ndarray | None
    objective: float | None
    iterations: int


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot the tableau on (row, col), updating the basis in place."""
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > _TOL:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_phase(
    tableau: np.ndarray,
    basis: np.ndarray,
    cost: np.ndarray,
    num_cols: int,
    max_iter: int,
) -> tuple[str, int]:
    """Run simplex iterations on ``tableau`` for the given cost vector.

    The last tableau row is rebuilt as the reduced-cost row for ``cost``.
    Returns (status, iterations). Bland's rule (smallest entering index,
    smallest-basis-index ratio ties) guarantees termination on degenerate
    instances, which our assignment ILPs produce in abundance.
    """
    m = tableau.shape[0] - 1
    # Rebuild the objective row: z_j - c_j for the current basis.
    tableau[-1, :] = 0.0
    tableau[-1, :num_cols] = cost[:num_cols]
    for r in range(m):
        coef = cost[basis[r]]
        if coef != 0.0:
            tableau[-1, :] -= coef * tableau[r, :]

    iterations = 0
    while iterations < max_iter:
        reduced = tableau[-1, :num_cols]
        entering = -1
        for j in range(num_cols):
            if reduced[j] > _TOL:  # row stores c_B B^-1 A - c; positive => improving
                entering = j
                break
        if entering < 0:
            return "optimal", iterations

        column = tableau[:m, entering]
        best_ratio = np.inf
        leaving = -1
        for r in range(m):
            if column[r] > _TOL:
                ratio = tableau[r, -1] / column[r]
                if ratio < best_ratio - _TOL or (
                    abs(ratio - best_ratio) <= _TOL
                    and (leaving < 0 or basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            return "unbounded", iterations

        _pivot(tableau, basis, leaving, entering)
        iterations += 1
    return "iteration_limit", iterations


def _solve_standard(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, max_iter: int
) -> SimplexResult:
    """Solve min c'x s.t. a x = b, x >= 0 via the two-phase method."""
    m, n = a.shape
    a = a.copy()
    b = b.copy()
    # Normalize to b >= 0 so the artificial basis is feasible.
    for r in range(m):
        if b[r] < 0:
            a[r] *= -1.0
            b[r] *= -1.0

    total_cols = n + m  # original + artificial
    tableau = np.zeros((m + 1, total_cols + 1))
    tableau[:m, :n] = a
    tableau[:m, n:total_cols] = np.eye(m)
    tableau[:m, -1] = b
    basis = np.arange(n, total_cols)

    # Phase 1: minimize the sum of artificials. We store the negated reduced
    # costs (z_j - c_j), so "improving" entries are positive.
    phase1_cost = np.zeros(total_cols)
    phase1_cost[n:] = -1.0
    status, it1 = _run_phase(tableau, basis, phase1_cost, total_cols, max_iter)
    if status == "iteration_limit":
        return SimplexResult("iteration_limit", None, None, it1)
    phase1_obj = tableau[-1, -1]
    if phase1_obj > 1e-7:
        return SimplexResult("infeasible", None, None, it1)

    # Drive any artificial still in the basis out (or drop its row if the
    # row is entirely zero over the original columns — a redundant row).
    for r in range(m):
        if basis[r] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(tableau[r, j]) > _TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, basis, r, pivot_col)
            # else: redundant row, the artificial stays basic at value 0.

    # Phase 2: original objective over original columns only. Artificial
    # columns are excluded from pricing by passing num_cols=n; basic
    # artificials (redundant rows) stay pinned at zero.
    phase2_cost = np.zeros(total_cols)
    phase2_cost[:n] = -c  # negate: row convention stores z_j - c_j
    status, it2 = _run_phase(tableau, basis, phase2_cost, n, max_iter - it1)
    iterations = it1 + it2
    if status == "iteration_limit":
        return SimplexResult("iteration_limit", None, None, iterations)
    if status == "unbounded":
        return SimplexResult("unbounded", None, None, iterations)

    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tableau[r, -1]
    return SimplexResult("optimal", x, float(c @ x), iterations)


def solve_lp_simplex(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    max_iter: int = 20000,
) -> SimplexResult:
    """Solve a bounded-form LP with the two-phase tableau simplex.

    Bound handling: finite lower bounds are shifted to zero; free variables
    (``lb = -inf``) are split into positive and negative parts; finite upper
    bounds become explicit slack rows. The returned ``x`` is in the original
    variable space.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n) if np.size(a_ub) else np.zeros((0, n))
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n) if np.size(a_eq) else np.zeros((0, n))
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)

    for j in range(n):
        if lb[j] > ub[j]:
            return SimplexResult("infeasible", None, None, 0)

    # Column construction: each original variable maps to one or two standard
    # columns. mapping[j] = (kind, col, shift) with kind in {"shift", "split"}.
    col_of: list[tuple[str, int, float]] = []
    num_std = 0
    for j in range(n):
        if np.isfinite(lb[j]):
            col_of.append(("shift", num_std, lb[j]))
            num_std += 1
        else:
            col_of.append(("split", num_std, 0.0))  # x = pos - neg
            num_std += 2

    def expand_row(row: np.ndarray) -> np.ndarray:
        out = np.zeros(num_std)
        for j in range(n):
            kind, col, _shift = col_of[j]
            out[col] = row[j]
            if kind == "split":
                out[col + 1] = -row[j]
        return out

    def shift_offset(row: np.ndarray) -> float:
        total = 0.0
        for j in range(n):
            kind, _col, shift = col_of[j]
            if kind == "shift":
                total += row[j] * shift
        return total

    rows, rhs, senses = [], [], []
    for r in range(a_ub.shape[0]):
        rows.append(expand_row(a_ub[r]))
        rhs.append(b_ub[r] - shift_offset(a_ub[r]))
        senses.append("<=")
    for r in range(a_eq.shape[0]):
        rows.append(expand_row(a_eq[r]))
        rhs.append(b_eq[r] - shift_offset(a_eq[r]))
        senses.append("==")
    # Finite upper bounds become rows x_shifted <= ub - lb.
    for j in range(n):
        kind, col, shift = col_of[j]
        if np.isfinite(ub[j]):
            row = np.zeros(num_std)
            row[col] = 1.0
            if kind == "split":
                row[col + 1] = -1.0
            rows.append(row)
            rhs.append(ub[j] - shift)
            senses.append("<=")

    num_rows = len(rows)
    num_slacks = sum(1 for s in senses if s == "<=")
    a_std = np.zeros((num_rows, num_std + num_slacks))
    b_std = np.array(rhs, dtype=float)
    slack = 0
    for r in range(num_rows):
        a_std[r, :num_std] = rows[r]
        if senses[r] == "<=":
            a_std[r, num_std + slack] = 1.0
            slack += 1

    c_std = np.zeros(num_std + num_slacks)
    obj_offset = 0.0
    for j in range(n):
        kind, col, shift = col_of[j]
        c_std[col] = c[j]
        if kind == "split":
            c_std[col + 1] = -c[j]
        else:
            obj_offset += c[j] * shift

    result = _solve_standard(a_std, b_std, c_std, max_iter)
    if result.status != "optimal":
        return result

    x = np.zeros(n)
    assert result.x is not None
    for j in range(n):
        kind, col, shift = col_of[j]
        if kind == "shift":
            x[j] = result.x[col] + shift
        else:
            x[j] = result.x[col] - result.x[col + 1]
    return SimplexResult("optimal", x, float(result.objective + obj_offset), result.iterations)


# --------------------------------------------------------------------------
# Revised dual simplex with bound handling and basis warm starts.

#: Nonbasic-at-lower / nonbasic-at-upper / nonbasic-free / basic.
NB_LOWER, NB_UPPER, NB_FREE, IN_BASIS = 0, 1, 2, 3

#: Dual-feasibility / pivot-eligibility tolerance.
_DTOL = 1e-9
#: Primal feasibility tolerance for basic values.
_PTOL = 1e-7
#: A cached inverse must map ``B @ 1`` back to ``1`` within this.
_FACTOR_TOL = 1e-6

#: Memory budget of one engine's factor cache (its slab), in bytes.
FACTOR_CACHE_BYTES = 4 << 20
#: Upper bound on the factor cache's slot count, whatever ``m`` is.
FACTOR_CACHE_SLOTS = 512

#: Process-wide basis keys: a key never repeats, so a basis handed to an
#: engine that did not produce it can only miss.
_BASIS_KEYS = itertools.count(1)


@dataclass
class Basis:
    """A simplex basis snapshot, shareable between parent and child nodes.

    ``basic[r]`` is the column (structural then slack) basic in row ``r``;
    ``status`` tags every column. ``generation`` identifies the constraint
    matrix the basis was factorized against — cut rounds rebuild the matrix
    and bump the engine's generation, which invalidates stale bases.
    ``key`` names the engine's cached factorization of this basis (``0``:
    none was kept).
    """

    basic: np.ndarray
    status: np.ndarray
    generation: int = 0
    key: int = 0


@dataclass
class WarmLpResult:
    """Outcome of a :class:`RevisedSimplex` solve.

    ``status`` is ``"optimal"``, ``"infeasible"``, ``"cutoff"`` (the dual
    bound crossed the caller's objective cutoff — a proven node prune), or
    ``"fallback"`` (numerical trouble; re-solve cold).
    """

    status: str
    x: np.ndarray | None
    objective: float | None
    iterations: int = 0
    reduced_costs: np.ndarray | None = None
    basis: Basis | None = None


class FactorCache:
    """Bounded LRU of basis factorizations held in one preallocated slab.

    Slot ``s`` holds ``binv[s]`` (an ``m x m`` basis inverse), ``d[s]`` (the
    reduced costs it prices) and ``age[s]`` (product-form updates since its
    last refactorization). The slab is allocated on the first store and
    never grows: ``min(FACTOR_CACHE_SLOTS, FACTOR_CACHE_BYTES // (8 (m^2 +
    width)))`` slots, zero when one factorization alone exceeds the budget
    (the cache then keeps nothing).
    """

    def __init__(self, m: int, width: int):
        self.slots = min(FACTOR_CACHE_SLOTS, FACTOR_CACHE_BYTES // (8 * (m * m + width)))
        self._shape = (m, width)
        self.binv = np.empty((0, m, m))
        self.d = np.empty((0, width))
        self.age = np.zeros(self.slots, dtype=np.int64)
        self._slot_of: OrderedDict[int, int] = OrderedDict()
        self._free = list(range(self.slots - 1, -1, -1))
        self.hits = 0
        self.misses = 0

    @property
    def nbytes(self) -> int:
        """Bytes held by the slab (zero until the first store)."""
        return self.binv.nbytes + self.d.nbytes

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, key: int) -> bool:
        return key in self._slot_of

    def lookup(self, key: int) -> int | None:
        """The slot caching ``key``, marked most recently used; else None."""
        slot = self._slot_of.get(key)
        if slot is None:
            self.misses += 1
            return None
        self._slot_of.move_to_end(key)
        self.hits += 1
        return slot

    def store(self, binv: np.ndarray, d: np.ndarray, age: int) -> int:
        """Copy one factorization into a slot; returns its new key (0: not kept)."""
        if self.slots == 0:
            return 0
        if not self.binv.size:
            m, width = self._shape
            self.binv = np.empty((self.slots, m, m))
            self.d = np.empty((self.slots, width))
        if self._free:
            slot = self._free.pop()
        else:
            _, slot = self._slot_of.popitem(last=False)
        np.copyto(self.binv[slot], binv)
        np.copyto(self.d[slot], d)
        self.age[slot] = age
        key = next(_BASIS_KEYS)
        self._slot_of[key] = slot
        return key

    def discard(self, key: int) -> None:
        """Forget ``key``; its slot goes back to the free list."""
        slot = self._slot_of.pop(key, None)
        if slot is not None:
            self._free.append(slot)


class RevisedSimplex:
    """Bounded-variable revised dual simplex over one constraint matrix.

    Built once per ``MatrixForm``: the working matrix is ``W = [A | I]``
    with one slack per row (``<=`` rows get a ``[0, inf)`` slack, equality
    rows a ``[0, 0]`` one), so only the variable bounds change between
    solves. ``solve`` accepts per-node ``lb``/``ub`` overrides plus an
    optional parent :class:`Basis`; the basis inverse is kept explicitly
    and updated by product-form pivots with periodic refactorization.
    Every optimal solve leaves its final factorization in :attr:`factors`,
    so a child re-solving from that basis skips the inversion.
    """

    def __init__(
        self,
        form: MatrixForm,
        generation: int = 0,
        max_iter: int = 5000,
        refactor_every: int = 40,
    ):
        n = form.num_vars
        m_ub = form.a_ub.shape[0] if form.a_ub.size else 0
        m_eq = form.a_eq.shape[0] if form.a_eq.size else 0
        m = m_ub + m_eq
        blocks = []
        rhs = []
        if m_ub:
            blocks.append(form.a_ub)
            rhs.append(form.b_ub)
        if m_eq:
            blocks.append(form.a_eq)
            rhs.append(form.b_eq)
        a = np.vstack(blocks) if blocks else np.zeros((0, n))
        self.w = np.hstack([a, np.eye(m)]) if m else np.zeros((0, n))
        self.b = np.concatenate(rhs) if rhs else np.zeros(0)
        self.c = np.concatenate([form.c.astype(float), np.zeros(m)])
        self.c0 = float(form.c0)
        self.n = n
        self.m = m
        self.slack_lb = np.zeros(m)
        self.slack_ub = np.concatenate([np.full(m_ub, math.inf), np.zeros(m_eq)])
        self.generation = generation
        self.max_iter = max_iter
        self.refactor_every = refactor_every
        self.factors = FactorCache(m, n + m)
        # Working factorization, reused by every solve (no per-solve arrays).
        self._binv = np.empty((m, m))
        self._d = np.empty(n + m)

    # ------------------------------------------------------------------ basis
    def initial_basis(self, lb: np.ndarray, ub: np.ndarray) -> Basis | None:
        """The all-slack basis with dual-feasible nonbasic statuses.

        With every slack basic the dual prices are zero and each structural
        reduced cost equals its objective coefficient, so dual feasibility
        is a matter of parking each column at the right bound: positive
        cost at the lower bound, negative at the upper. A column that needs
        an infinite bound for that cannot be made dual feasible here —
        returns ``None`` and the caller solves cold.
        """
        n, m = self.n, self.m
        status = np.empty(n + m, dtype=np.int8)
        c = self.c[:n]
        lo_ok = np.isfinite(lb)
        up_ok = np.isfinite(ub)
        status[:n] = np.where(
            c > _DTOL,
            NB_LOWER,
            np.where(
                c < -_DTOL,
                NB_UPPER,
                np.where(lo_ok, NB_LOWER, np.where(up_ok, NB_UPPER, NB_FREE)),
            ),
        )
        bad = ((status[:n] == NB_LOWER) & ~lo_ok) | ((status[:n] == NB_UPPER) & ~up_ok)
        if bad.any():
            return None
        status[n:] = IN_BASIS
        return Basis(
            basic=np.arange(n, n + m), status=status, generation=self.generation
        )

    def _price(self, bas: np.ndarray) -> None:
        """Recompute the reduced costs ``d = c - (c_B B^-1) W`` from scratch."""
        np.subtract(self.c, (self.c[bas] @ self._binv) @ self.w, out=self._d)

    def _refactor(self, bas: np.ndarray) -> bool:
        """Invert ``W[:, bas]`` into the working factorization and reprice."""
        try:
            self._binv[...] = np.linalg.inv(self.w[:, bas])
        except np.linalg.LinAlgError:
            return False
        self._price(bas)
        return True

    def _restore(self, slot: int, key: int, bas: np.ndarray) -> int | None:
        """Load cached slot ``slot`` as the working factorization; its age.

        ``None`` when the cached inverse no longer maps ``B @ 1`` back to
        ``1``: the slot is dropped and the caller falls back, as for any
        other numerical doubt.
        """
        binv = self._binv
        np.copyto(binv, self.factors.binv[slot])
        np.copyto(self._d, self.factors.d[slot])
        member = np.zeros(self.n + self.m)
        member[bas] = 1.0
        if not np.all(np.abs(binv @ (self.w @ member) - 1.0) <= _FACTOR_TOL):
            self.factors.discard(key)
            return None
        return int(self.factors.age[slot])

    # ------------------------------------------------------------------ solve
    def solve(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        basis: Basis | None = None,
        cutoff: float | None = None,
    ) -> WarmLpResult:
        """Reoptimize under new bounds, warm from ``basis`` when possible.

        A stale-generation (or absent) basis falls back to the all-slack
        start. A basis whose ``key`` is still in :attr:`factors` restarts
        from the cached inverse and reduced costs; any other basis is
        inverted afresh. ``cutoff`` is an objective value (including the
        constant offset): the dual objective is a monotone lower bound, so
        the solve stops with ``"cutoff"`` as soon as it crosses — the
        caller prunes the node without finishing the LP.
        """
        n, m = self.n, self.m
        if np.any(lb > ub):
            return WarmLpResult("infeasible", None, None)
        if m == 0:
            return self._solve_unconstrained(lb, ub)
        if basis is None or basis.generation != self.generation:
            basis = self.initial_basis(lb, ub)
            if basis is None:
                return WarmLpResult("fallback", None, None)
        bas = basis.basic.copy()
        status = basis.status.copy()
        status[bas] = IN_BASIS
        big_l = np.concatenate([lb, self.slack_lb])
        big_u = np.concatenate([ub, self.slack_ub])
        binv, d = self._binv, self._d
        slot = self.factors.lookup(basis.key) if basis.key else None
        if slot is None:
            if not self._refactor(bas):
                return WarmLpResult("fallback", None, None)
            age = 0
        else:
            restored = self._restore(slot, basis.key, bas)
            if restored is None:
                return WarmLpResult("fallback", None, None)
            age = restored

        # Repair dual feasibility by bound flips; unfixable columns bail.
        fixed = big_u - big_l <= _DTOL
        bad_lo = (status == NB_LOWER) & ~fixed & (d < -_DTOL * 10)
        flip = bad_lo & np.isfinite(big_u)
        status[flip] = NB_UPPER
        if np.any(bad_lo & ~flip):
            return WarmLpResult("fallback", None, None)
        bad_up = (status == NB_UPPER) & ~fixed & (d > _DTOL * 10)
        flip = bad_up & np.isfinite(big_l)
        status[flip] = NB_LOWER
        if np.any(bad_up & ~flip):
            return WarmLpResult("fallback", None, None)
        if np.any((status == NB_FREE) & (np.abs(d) > _DTOL * 10)):
            return WarmLpResult("fallback", None, None)

        nb_value = np.where(status == NB_LOWER, big_l, np.where(status == NB_UPPER, big_u, 0.0))
        nb_value[bas] = 0.0
        if not np.all(np.isfinite(nb_value)):
            return WarmLpResult("fallback", None, None)

        iterations = 0
        while iterations < self.max_iter:
            z = nb_value.copy()
            z[bas] = 0.0
            xb = binv @ (self.b - self.w @ z)
            z[bas] = xb
            objective = float(self.c @ z) + self.c0
            if cutoff is not None and objective > cutoff + 1e-9:
                return WarmLpResult("cutoff", None, objective, iterations)

            below = big_l[bas] - xb
            above = xb - big_u[bas]
            viol = np.maximum(below, above)
            r = int(np.argmax(viol))
            if viol[r] <= _PTOL * (1.0 + abs(xb[r])):
                if age and np.max(np.abs(self.w @ z - self.b)) > _PTOL:
                    # Updates carried in from earlier solves have drifted
                    # the point off its rows: refactor and look again.
                    if not self._refactor(bas):
                        return WarmLpResult("fallback", None, None, iterations)
                    age = 0
                    continue
                # Leave with fresh reduced costs, never incrementally drifted
                # ones: root duals drive reduced-cost fixing.
                self._price(bas)
                key = self.factors.store(binv, d, age)
                return WarmLpResult(
                    "optimal",
                    z[:n].copy(),
                    objective,
                    iterations,
                    reduced_costs=d[:n].copy(),
                    basis=Basis(basic=bas, status=status, generation=self.generation, key=key),
                )

            leaving_low = below[r] >= above[r]
            sigma = 1.0 if leaving_low else -1.0
            alpha = binv[r] @ self.w
            atil = sigma * alpha
            eligible = (
                ~fixed
                & (
                    ((status == NB_LOWER) & (atil < -_DTOL))
                    | ((status == NB_UPPER) & (atil > _DTOL))
                    | ((status == NB_FREE) & (np.abs(atil) > _DTOL))
                )
            )
            eligible[bas] = False
            if not eligible.any():
                return WarmLpResult("infeasible", None, None, iterations)
            cand = np.flatnonzero(eligible)
            ratios = np.abs(d[cand]) / np.abs(atil[cand])
            q = int(cand[int(np.argmin(ratios))])
            pivot = alpha[q]
            if abs(pivot) < 1e-11:
                if age and self._refactor(bas):
                    age = 0  # a drifted inverse may fake a tiny pivot
                    continue
                return WarmLpResult("fallback", None, None, iterations)

            leaving = int(bas[r])
            status[leaving] = NB_LOWER if leaving_low else NB_UPPER
            nb_value[leaving] = big_l[leaving] if leaving_low else big_u[leaving]
            status[q] = IN_BASIS
            nb_value[q] = 0.0
            bas[r] = q
            # Dual update along the pivot row the ratio test already priced.
            d -= (d[q] / pivot) * alpha
            d[q] = 0.0
            # Product-form update B^-1 <- B^-1 - (col - e_r) (row_r / pivot),
            # as one in-place BLAS rank-1 update on the row-major inverse.
            col = binv @ self.w[:, q]
            col[r] -= 1.0
            dger(-1.0, binv[r] / pivot, col, a=binv.T, overwrite_a=True)
            iterations += 1
            age += 1
            if age >= self.refactor_every:
                if not self._refactor(bas):
                    return WarmLpResult("fallback", None, None, iterations)
                age = 0
        return WarmLpResult("fallback", None, None, iterations)

    def _solve_unconstrained(self, lb: np.ndarray, ub: np.ndarray) -> WarmLpResult:
        """No rows: each column sits at whichever bound its cost prefers."""
        c = self.c[: self.n]
        x = np.where(c > 0.0, lb, np.where(c < 0.0, ub, np.where(np.isfinite(lb), lb, 0.0)))
        if not np.all(np.isfinite(x)):
            return WarmLpResult("unbounded" if np.any(c != 0.0) else "fallback", None, None)
        status = np.where(x == lb, NB_LOWER, NB_UPPER).astype(np.int8)
        return WarmLpResult(
            "optimal",
            x.astype(float),
            float(c @ x) + self.c0,
            0,
            reduced_costs=c.copy(),
            basis=Basis(basic=np.zeros(0, dtype=int), status=status, generation=self.generation),
        )
