"""Solver benchmark: the branch-and-bound fast path vs the plain search.

Measures the F1 width sweep (S1, the paper's heaviest routine exact
harness) under four solver configurations and writes the numbers to
``BENCH_solver.json``:

- ``fast_cold`` — defaults: node presolve + pseudocost branching, jobs=1,
  empty cache;
- ``baseline_cold`` — ``presolve=False, branching="most_fractional"``:
  exactly the pre-fast-path solver, same grid;
- ``fast_warm`` — defaults re-run on the populated disk cache (every solve
  answered from the store);
- ``fast_cold_jobsN`` — defaults, cold cache, parallel fan-out. With a
  single worker this leg would repeat ``fast_cold``, so it is skipped:
  ``parallel_vs_serial_cold`` is ``null`` and ``parallel_note`` says why;
- ``cuts_off`` / ``cuts_on`` — the same sweep under a tight layout budget
  (grid floorplan, ``max_pair_distance=3.0``) with branch-and-cut disabled
  vs the default :class:`~repro.api.CutPolicy` — the pairwise exclusion
  rows give the clique separator real conflict structure, so this pair
  isolates what the cuts buy;
- ``presolve_off`` / ``presolve_on`` / ``warm_start`` — the PR-9 ladder on
  the same grid: root presolve and warm starts both off (the PR-8 solver),
  root presolve alone, then root presolve + warm-started node LPs (the
  defaults). ``presolve_off`` vs ``warm_start`` is the headline
  cold-wall-time step;
- ``presolve_active`` — S1 under ``timing="fixed"`` with mixed narrow
  widths and a tight power budget. Serial timing never renders a
  (core, bus) pair infeasible, so the default F1 grid gives the root
  reducer nothing to propagate and ``root_cols_removed`` /
  ``root_rows_removed`` stay 0 on every leg above; fixed timing forbids
  narrow buses to wide cores, the forced/zero-fix rows interact, and the
  reductions demonstrably fire. ``--check`` asserts they stay nonzero.

Besides wall time the script records the search-effort counters (B&B
nodes, LP solves, presolve fixings/prunes, warm LP solves/fallbacks) per
leg — node counts are machine-independent, so CI regression-checks them
instead of seconds: with ``--check`` the run compares its fast-path node
count against the checked-in ``benchmarks/bench_solver_baseline.json``
and exits 1 on a >20% regression, and additionally requires the
``warm_start`` leg to answer at least 90% of its node LPs from the warm
engine (the warm-vs-cold re-solve floor). ``--record-baseline`` refreshes
that file.

Run with::

    python benchmarks/bench_solver.py [--quick] [--check] [--jobs N] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import (  # noqa: E402
    CutPolicy,
    DesignProblem,
    PresolvePolicy,
    RunTelemetry,
    SolutionCache,
    SolvePolicy,
    SolverOptions,
    TamArchitecture,
    build_s1,
    design,
    design_best_architecture,
    grid_place,
    use_cache,
    width_sweep,
)
from repro.obs import now  # noqa: E402
from repro.runtime.parallel import resolve_workers  # noqa: E402

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BASELINE_PATH = Path(__file__).resolve().parent / "bench_solver_baseline.json"

#: CI gate: fail when the fast path needs this much more search effort than
#: the recorded baseline (nodes are deterministic; seconds are not).
_NODE_REGRESSION_TOLERANCE = 0.20

#: CI gate: branch-and-cut must shrink the layout-constrained tree by at
#: least this factor vs the same sweep with cuts disabled.
_CUTS_MIN_NODE_REDUCTION = 1.5

#: CI gate: on the warm_start leg, at least this share of node LPs must be
#: answered by the revised dual simplex reoptimizing from a parent basis
#: (the rest fell back to cold re-solves on numerical trouble). The share
#: is deterministic for a fixed grid, unlike seconds.
_WARM_MIN_LP_SHARE = 0.9

#: Layout budget for the cuts legs. Tight enough that the pairwise
#: exclusion rows carry real conflict structure (every distance class of
#: the S1 grid floorplan above 2.67 is excluded), so clique separation has
#: something to cut.
_CUTS_MAX_PAIR_DISTANCE = 3.0


#: Architectures for the ``presolve_active`` leg: mixed widths under fixed
#: timing, so several (core, bus) pairs are width-infeasible and the root
#: reducer has zero-fix rows to propagate.
_PRESOLVE_ARCHS = ((16, 8, 4), (32, 16, 8), (32, 16, 4))

#: Power budget for the ``presolve_active`` leg — tight enough to force
#: pairwise exclusion/forcing structure into the root model.
_PRESOLVE_POWER_BUDGET = 100.0


def _grid(quick: bool) -> dict:
    return dict(
        bus_counts=(2,) if quick else (2, 3),
        total_widths=[8, 16, 24] if quick else [8, 16, 24, 32, 40, 48],
    )


def _cuts_grid(quick: bool) -> dict:
    return dict(
        bus_counts=(2,) if quick else (2, 3),
        total_widths=[16, 24] if quick else [16, 24, 32],
    )


def _run_sweep(soc, grid: dict, jobs: int, **solver_options) -> dict:
    start = now()
    telemetry = RunTelemetry(jobs=jobs)
    for num_buses in grid["bus_counts"]:
        points = width_sweep(
            soc, num_buses, grid["total_widths"], timing="serial",
            jobs=jobs, **solver_options,
        )
        for point in points:
            telemetry.merge(point.telemetry)
    elapsed = now() - start
    return {
        "seconds": round(elapsed, 3),
        "jobs": jobs,
        "nodes": telemetry.nodes,
        "lp_solves": telemetry.lp_solves,
        "presolve_fixings": telemetry.presolve_fixings,
        "presolve_pruned": telemetry.presolve_pruned,
        "root_cols_removed": telemetry.root_cols_removed,
        "root_rows_removed": telemetry.root_rows_removed,
        "warm_lp_solves": telemetry.warm_lp_solves,
        "warm_lp_fallbacks": telemetry.warm_lp_fallbacks,
        "cache_hits": telemetry.cache_hits,
        "solves": telemetry.solves,
    }


def _run_layout_sweep(soc, grid: dict, cuts: CutPolicy) -> dict:
    """The same width sweep under a tight layout budget, cuts on or off.

    A tight layout budget makes many candidate architectures *infeasible*
    (or unable to beat the incumbent), and the node work spent proving that
    is where cuts help most; sweep telemetry counts every solve the sweep
    ran, infeasible ones included.
    """
    floorplan = grid_place(soc)
    policy = SolvePolicy(solver=SolverOptions(cuts=cuts))
    telemetry = RunTelemetry()
    start = now()
    for num_buses in grid["bus_counts"]:
        for width in grid["total_widths"]:
            sweep = design_best_architecture(
                soc, width, num_buses, timing="serial",
                floorplan=floorplan,
                max_pair_distance=_CUTS_MAX_PAIR_DISTANCE,
                policy=policy,
            )
            telemetry.merge(sweep.telemetry)
    elapsed = now() - start
    return {
        "seconds": round(elapsed, 3),
        "jobs": 1,
        "nodes": telemetry.nodes,
        "lp_solves": telemetry.lp_solves,
        "cuts": telemetry.cuts,
    }


def _run_presolve_leg(soc) -> dict:
    """Fixed-timing instances where root presolve reductions actually fire."""
    telemetry = RunTelemetry()
    start = now()
    for widths in _PRESOLVE_ARCHS:
        problem = DesignProblem(
            soc,
            TamArchitecture(widths),
            timing="fixed",
            power_budget=_PRESOLVE_POWER_BUDGET,
        )
        result = design(problem, cache=False)
        telemetry.record(result.stats)
    elapsed = now() - start
    return {
        "seconds": round(elapsed, 3),
        "jobs": 1,
        "archs": [list(w) for w in _PRESOLVE_ARCHS],
        "power_budget": _PRESOLVE_POWER_BUDGET,
        "nodes": telemetry.nodes,
        "lp_solves": telemetry.lp_solves,
        "root_cols_removed": telemetry.root_cols_removed,
        "root_rows_removed": telemetry.root_rows_removed,
    }


def run_bench(quick: bool, jobs: int) -> dict:
    soc = build_s1()
    grid = _grid(quick)
    results: dict[str, dict] = {}

    baseline_policy = SolvePolicy(
        solver=SolverOptions(
            presolve=False,
            branching="most_fractional",
            cuts=CutPolicy.disabled(),
            root_presolve=PresolvePolicy.disabled(),
            warm_start=False,
        )
    )
    # The PR-9 ladder: the PR-8 solver (fast path + cuts, but no root
    # presolve and cold node LPs), then each new layer switched on.
    pr8_policy = SolvePolicy(
        solver=SolverOptions(
            root_presolve=PresolvePolicy.disabled(), warm_start=False
        )
    )
    presolve_only_policy = SolvePolicy(solver=SolverOptions(warm_start=False))
    with tempfile.TemporaryDirectory(prefix="repro-bench-solver-") as tmp:
        results["fast_cold"] = _run_sweep(soc, grid, jobs=1)
        results["baseline_cold"] = _run_sweep(soc, grid, jobs=1, policy=baseline_policy)
        results["presolve_off"] = _run_sweep(soc, grid, jobs=1, policy=pr8_policy)
        results["presolve_on"] = _run_sweep(
            soc, grid, jobs=1, policy=presolve_only_policy
        )
        results["warm_start"] = _run_sweep(soc, grid, jobs=1)  # = the defaults
        warm_dir = os.path.join(tmp, "warm")
        with use_cache(SolutionCache(directory=warm_dir)):
            _run_sweep(soc, grid, jobs=1)  # populate
            results["fast_warm"] = _run_sweep(soc, grid, jobs=1)
        assert results["fast_warm"]["nodes"] == 0, "warm re-run must be fully cached"
        parallel_speedup = None
        parallel_note = "one worker available: a parallel leg would repeat fast_cold"
        if jobs > 1:
            parallel = _run_sweep(soc, grid, jobs=jobs)
            results[f"fast_cold_jobs{jobs}"] = parallel
            parallel_speedup = round(
                results["fast_cold"]["seconds"] / max(parallel["seconds"], 1e-9), 2
            )
            parallel_note = None

    cuts_grid = _cuts_grid(quick)
    results["cuts_off"] = _run_layout_sweep(soc, cuts_grid, CutPolicy.disabled())
    results["cuts_on"] = _run_layout_sweep(soc, cuts_grid, CutPolicy())
    assert results["cuts_off"]["cuts"] == 0
    results["presolve_active"] = _run_presolve_leg(soc)

    fast, base = results["fast_cold"], results["baseline_cold"]
    return {
        "benchmark": "F1 width sweep, solver fast path",
        "soc": soc.name,
        "grid": {k: list(v) for k, v in grid.items()},
        "cuts_grid": {
            **{k: list(v) for k, v in cuts_grid.items()},
            "max_pair_distance": _CUTS_MAX_PAIR_DISTANCE,
        },
        "quick": quick,
        "results": results,
        "speedup": {
            "cold_wall_time": round(base["seconds"] / max(fast["seconds"], 1e-9), 2),
            "node_reduction": round(base["nodes"] / max(fast["nodes"], 1), 2),
            "lp_solve_reduction": round(base["lp_solves"] / max(fast["lp_solves"], 1), 2),
            "parallel_vs_serial_cold": parallel_speedup,
            "cuts_node_reduction": round(
                results["cuts_off"]["nodes"] / max(results["cuts_on"]["nodes"], 1), 2
            ),
            # The PR-9 headline: cold wall-time step from the PR-8 solver to
            # root presolve + warm-started node LPs on the same grid.
            "presolve_warm_step": round(
                results["presolve_off"]["seconds"]
                / max(results["warm_start"]["seconds"], 1e-9),
                2,
            ),
            "warm_lp_share": round(
                results["warm_start"]["warm_lp_solves"]
                / max(results["warm_start"]["lp_solves"], 1),
                3,
            ),
        },
        "parallel_note": parallel_note,
    }


def check_baseline(payload: dict) -> int:
    """Compare this run's fast-path node count against the checked-in one."""
    if not _BASELINE_PATH.exists():
        print(f"no baseline at {_BASELINE_PATH}; run with --record-baseline first",
              file=sys.stderr)
        return 1
    baseline = json.loads(_BASELINE_PATH.read_text(encoding="utf-8"))
    key = "quick" if payload["quick"] else "full"
    recorded = baseline.get(key)
    if recorded is None:
        print(f"baseline has no {key!r} entry; skipping check", file=sys.stderr)
        return 0
    nodes = payload["results"]["fast_cold"]["nodes"]
    limit = recorded["nodes"] * (1.0 + _NODE_REGRESSION_TOLERANCE)
    print(f"node check ({key}): {nodes} vs baseline {recorded['nodes']} "
          f"(limit {limit:.0f})")
    if nodes > limit:
        print(
            f"REGRESSION: fast-path cold node count {nodes} exceeds baseline "
            f"{recorded['nodes']} by more than {_NODE_REGRESSION_TOLERANCE:.0%}",
            file=sys.stderr,
        )
        return 1
    reduction = payload["speedup"]["cuts_node_reduction"]
    print(f"cuts check ({key}): {reduction}x node reduction "
          f"(floor {_CUTS_MIN_NODE_REDUCTION}x)")
    if reduction < _CUTS_MIN_NODE_REDUCTION:
        print(
            f"REGRESSION: branch-and-cut node reduction {reduction}x is below "
            f"the {_CUTS_MIN_NODE_REDUCTION}x floor on the layout-constrained "
            "sweep",
            file=sys.stderr,
        )
        return 1
    share = payload["speedup"]["warm_lp_share"]
    print(f"warm-share check ({key}): {share:.1%} of node LPs answered warm "
          f"(floor {_WARM_MIN_LP_SHARE:.0%})")
    if share < _WARM_MIN_LP_SHARE:
        print(
            f"REGRESSION: only {share:.1%} of node LPs on the warm_start leg "
            f"were answered by the warm dual simplex (floor "
            f"{_WARM_MIN_LP_SHARE:.0%}); the rest re-solved cold",
            file=sys.stderr,
        )
        return 1
    active = payload["results"]["presolve_active"]
    removed = active["root_cols_removed"] + active["root_rows_removed"]
    print(f"presolve-activity check ({key}): {active['root_cols_removed']} cols + "
          f"{active['root_rows_removed']} rows removed (must be > 0)")
    if removed <= 0:
        print(
            "REGRESSION: the presolve_active leg (fixed timing, tight power "
            "budget) removed no root rows or columns — the root reducer is "
            "dead on the one grid built to exercise it",
            file=sys.stderr,
        )
        return 1
    cuts_recorded = recorded.get("cuts_on_nodes")
    if cuts_recorded is not None:
        cuts_nodes = payload["results"]["cuts_on"]["nodes"]
        cuts_limit = cuts_recorded * (1.0 + _NODE_REGRESSION_TOLERANCE)
        print(f"cuts-on node check ({key}): {cuts_nodes} vs baseline "
              f"{cuts_recorded} (limit {cuts_limit:.0f})")
        if cuts_nodes > cuts_limit:
            print(
                f"REGRESSION: cuts-on cold node count {cuts_nodes} exceeds "
                f"baseline {cuts_recorded} by more than "
                f"{_NODE_REGRESSION_TOLERANCE:.0%}",
                file=sys.stderr,
            )
            return 1
    return 0


def record_baseline(payload: dict) -> None:
    key = "quick" if payload["quick"] else "full"
    baseline = {}
    if _BASELINE_PATH.exists():
        baseline = json.loads(_BASELINE_PATH.read_text(encoding="utf-8"))
    baseline[key] = {
        "nodes": payload["results"]["fast_cold"]["nodes"],
        "lp_solves": payload["results"]["fast_cold"]["lp_solves"],
        "cuts_on_nodes": payload["results"]["cuts_on"]["nodes"],
        "warm_lp_share": payload["speedup"]["warm_lp_share"],
        "grid": payload["grid"],
    }
    _BASELINE_PATH.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"recorded {key} baseline to {_BASELINE_PATH}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced grid for CI smoke runs")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker count for the parallel leg (default: 0 = one per core)")
    parser.add_argument("--out", default=str(_REPO_ROOT / "BENCH_solver.json"),
                        help="output JSON path (default: repo-root BENCH_solver.json)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the cold node count regresses >20%% "
                             "vs benchmarks/bench_solver_baseline.json")
    parser.add_argument("--record-baseline", action="store_true",
                        help="refresh the checked-in node-count baseline from this run")
    args = parser.parse_args(argv)

    payload = run_bench(quick=args.quick, jobs=resolve_workers(args.jobs))
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    r = payload["results"]
    for leg in sorted(r):
        row = r[leg]
        print(f"{leg:22s}: {row['seconds']:7.2f}s  nodes={row['nodes']:<7d} "
              f"LPs={row['lp_solves']:<7d} jobs={row['jobs']}")
    s = payload["speedup"]
    parallel = s["parallel_vs_serial_cold"]
    parallel_text = "n/a" if parallel is None else f"{parallel}x"
    print(f"speedups: cold wall {s['cold_wall_time']}x, nodes {s['node_reduction']}x, "
          f"LPs {s['lp_solve_reduction']}x, parallel {parallel_text}, "
          f"cuts nodes {s['cuts_node_reduction']}x, "
          f"presolve+warm step {s['presolve_warm_step']}x "
          f"(warm share {s['warm_lp_share']:.0%})")
    print(f"wrote {args.out}")

    if args.record_baseline:
        record_baseline(payload)
    if args.check:
        return check_baseline(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
