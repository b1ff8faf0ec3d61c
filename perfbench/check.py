"""Independent answer checking, from primitive SOC, floorplan and power data.

The program validates its own answers (``DesignProblem.validate``); this
module does not trust that. It re-derives every constraint from the raw
core records — interface widths, test powers, block centres — and
recomputes the makespan from per-core base test times, so a solver,
formulation or decode bug cannot vouch for itself.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: Test times are integral cycle counts; the solver stops once its bound is
#: within one cycle of the incumbent (the default ``gap_tol``).
ONE_CYCLE = 1.0


class Instance:
    """One checkable problem: primitives plus the program's ``DesignProblem``."""

    def __init__(self, name, soc, widths, timing="serial", power_budget=None,
                 floorplan=None, max_pair_distance=None, constrained=False):
        self.name = name
        self.soc = soc
        self.widths = tuple(int(w) for w in widths)
        self.timing_name = timing
        self.power_budget = power_budget
        self.floorplan = floorplan
        self.max_pair_distance = max_pair_distance
        #: Named as constrained: must force or forbid at least one pair.
        self.constrained = constrained
        self.problem = self.fresh_problem()
        self.times = self._times()
        self.forced = self._forced_pairs()
        self.forbidden = self._forbidden_pairs()
        if constrained and not (self.forced or self.forbidden):
            raise ValueError(f"{name}: named as constrained but forces and forbids nothing")
        per_core_best = self.times.min(axis=1)
        #: max(slowest core on its fastest bus, total work spread evenly).
        self.lower_bound = max(
            float(per_core_best.max()), float(per_core_best.sum()) / len(self.widths)
        )

    def fresh_problem(self):
        """A new ``DesignProblem`` with none of its lazy tables computed yet."""
        from repro.api import DesignProblem, TamArchitecture

        return DesignProblem(
            self.soc, TamArchitecture(list(self.widths)), timing=self.timing_name,
            power_budget=self.power_budget,
            floorplan=self.floorplan if self.max_pair_distance is not None else None,
            max_pair_distance=self.max_pair_distance,
        )

    # ------------------------------------------------------------ primitives
    def _times(self) -> np.ndarray:
        timing = self.problem.timing
        out = np.empty((len(self.soc), len(self.widths)))
        for i, core in enumerate(self.soc.cores):
            for j, width in enumerate(self.widths):
                if self.timing_name == "flexible":
                    # t_ij is a wrapper redesign per width: no closed form.
                    out[i, j] = timing.time_on_bus(core, width)
                    continue
                base = timing.base_time(core)
                if width >= core.test_width:
                    out[i, j] = base
                elif self.timing_name == "serial":
                    out[i, j] = base * math.ceil(core.test_width / width)
                else:  # fixed: a narrower bus cannot carry the core at all
                    out[i, j] = math.inf
        return out

    def _forced_pairs(self) -> list[tuple[int, int]]:
        if self.power_budget is None:
            return []
        powers = [core.test_power for core in self.soc.cores]
        return [
            (a, b) for a, b in itertools.combinations(range(len(powers)), 2)
            if powers[a] + powers[b] > self.power_budget
        ]

    def _forbidden_pairs(self) -> list[tuple[int, int]]:
        if self.max_pair_distance is None:
            return []
        centres = [(block.x, block.y) for block in self.floorplan.blocks]
        return [
            (a, b) for a, b in itertools.combinations(range(len(centres)), 2)
            if abs(centres[a][0] - centres[b][0]) + abs(centres[a][1] - centres[b][1])
            > self.max_pair_distance + 1e-12
        ]

    # ----------------------------------------------------------------- check
    def check(self, bus_of, makespan: float) -> list[str]:
        """Violations of ``bus_of`` (core index -> bus) claiming ``makespan``."""
        errors = []
        bus_of = list(bus_of)
        if len(bus_of) != len(self.soc):
            return [f"{self.name}: {len(bus_of)} cores assigned, expected {len(self.soc)}"]
        loads = [0.0] * len(self.widths)
        for i, bus in enumerate(bus_of):
            if not (isinstance(bus, (int, np.integer)) and 0 <= bus < len(self.widths)):
                errors.append(f"{self.name}: core {i} on bus {bus!r}")
                continue
            if not math.isfinite(self.times[i, bus]):
                errors.append(f"{self.name}: core {i} does not fit bus {bus}")
                continue
            loads[bus] += self.times[i, bus]
        errors += [
            f"{self.name}: forbidden pair {a},{b} shares bus {bus_of[a]}"
            for a, b in self.forbidden if bus_of[a] == bus_of[b]
        ]
        errors += [
            f"{self.name}: forced pair {a},{b} split over {bus_of[a]},{bus_of[b]}"
            for a, b in self.forced if bus_of[a] != bus_of[b]
        ]
        if not errors and abs(max(loads) - makespan) > 1e-6 * max(1.0, makespan):
            errors.append(f"{self.name}: makespan {makespan} but buses sum to {max(loads)}")
        if not errors and makespan < self.lower_bound - 1e-6 * max(1.0, makespan):
            errors.append(f"{self.name}: makespan {makespan} below lower bound {self.lower_bound}")
        return errors

    def highs_optimum(self) -> float:
        """The optimum of the benchmark's own assignment MILP, solved by HiGHS.

        Built from the primitive times and pairs above, not from the
        program's formulation: x_ij binary (core i on bus j), minimize T
        with one bus per core, every bus load <= T, forbidden pairs never
        together and forced pairs always together.
        """
        from scipy.optimize import Bounds, LinearConstraint, milp

        n, m = self.times.shape
        nv = n * m + 1  # x_ij at i*m + j, then T
        rows, lo, hi = [], [], []

        def row(entries, low, high):
            vec = np.zeros(nv)
            for index, coeff in entries:
                vec[index] += coeff
            rows.append(vec)
            lo.append(low)
            hi.append(high)

        for i in range(n):
            row([(i * m + j, 1.0) for j in range(m)], 1.0, 1.0)
        finite = np.isfinite(self.times)
        for j in range(m):
            row([(i * m + j, self.times[i, j]) for i in range(n) if finite[i, j]]
                + [(n * m, -1.0)], -np.inf, 0.0)
            for a, b in self.forbidden:
                row([(a * m + j, 1.0), (b * m + j, 1.0)], -np.inf, 1.0)
            for a, b in self.forced:
                row([(a * m + j, 1.0), (b * m + j, -1.0)], 0.0, 0.0)
        upper = np.append(np.where(finite, 1.0, 0.0).ravel(), np.inf)
        cost = np.zeros(nv)
        cost[-1] = 1.0
        integrality = np.append(np.ones(n * m), 0)
        res = milp(cost, constraints=LinearConstraint(np.array(rows), lo, hi),
                   integrality=integrality, bounds=Bounds(np.zeros(nv), upper))
        if res.status != 0:
            raise RuntimeError(f"{self.name}: HiGHS reference failed: {res.message}")
        return float(res.fun)

    def bus_of_names(self, by_name: dict) -> list:
        """Service payloads name cores; map back to index order."""
        names = [core.name for core in self.soc.cores]
        if sorted(by_name) != sorted(names):
            return []
        return [by_name[name] for name in names]


def bound_violation(best_bound, makespan: float) -> bool:
    """A reported dual bound more than one cycle above the returned answer."""
    return best_bound is not None and best_bound > makespan + ONE_CYCLE


def geomean(values) -> float:
    """Geometric mean; 0.0 when every operation failed (the run is incorrect)."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
