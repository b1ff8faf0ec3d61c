"""Runtime benchmark: solve cache and parallel fan-out speedups.

Measures the F1 width sweep (the heaviest exact harness the suite runs
routinely) under four runtime configurations and writes the numbers to
``BENCH_runtime.json``:

- ``serial_cold`` — jobs=1, empty cache: the seed's baseline behavior;
- ``serial_warm`` — jobs=1 re-run on the populated disk cache, which must
  answer every solve from the store (zero fresh B&B work — asserted);
- ``parallel_cold`` — jobs=N on a fresh cache directory;
- ``parallel_warm`` — jobs=N on the shared warm store.

With a single worker the parallel legs would repeat the serial ones, so
they are skipped: ``parallel_vs_serial_cold`` is ``null`` and
``parallel_note`` says why.

Run with::

    python benchmarks/bench_runtime_cache.py [--quick] [--jobs N] [--out PATH]

The script is deliberately not a pytest-benchmark module: CI runs it as a
smoke step and archives the JSON artifact, so it needs a plain entry point
and machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import ExperimentConfig, build_s1, run_experiment  # noqa: E402
from repro.obs import now  # noqa: E402
from repro.runtime.parallel import resolve_workers  # noqa: E402


def _run_f1(grid: dict, jobs: int, cache_dir: str):
    config = ExperimentConfig(jobs=jobs, cache_dir=cache_dir)
    start = now()
    result = run_experiment("F1", config=config, **grid)
    elapsed = now() - start
    return elapsed, config, result


def _best_cold(grid: dict, jobs: int, base_dir: str, repeats: int):
    """Best-of-N cold run (fresh cache dir per repetition, min wall time)."""
    best = None
    for rep in range(repeats):
        elapsed, config, result = _run_f1(
            grid, jobs=jobs, cache_dir=os.path.join(base_dir, f"rep{rep}")
        )
        if best is None or elapsed < best[0]:
            best = (elapsed, config, result)
    return best


def run_bench(quick: bool, jobs: int, repeats: int = 3) -> dict:
    soc = build_s1()
    grid = dict(
        soc=soc,
        bus_counts=(2,) if quick else (2, 3),
        total_widths=[8, 16, 24] if quick else [8, 16, 24, 32, 40, 48],
    )

    results: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        serial_store = os.path.join(tmp, "serial")
        parallel_store = os.path.join(tmp, "parallel")

        cold_s, cold_cfg, _ = _best_cold(grid, 1, serial_store, repeats)
        warm_s, warm_cfg, _ = _run_f1(grid, jobs=1, cache_dir=os.path.join(serial_store, "rep0"))
        assert warm_cfg.cache.misses == 0, "warm serial re-run must be fully cached"

        results["serial_cold"] = {"seconds": cold_s, "cache_misses": cold_cfg.cache.misses}
        results["serial_warm"] = {"seconds": warm_s, "cache_misses": warm_cfg.cache.misses}
        parallel_speedup = None
        parallel_note = (
            "one worker available: a parallel leg would repeat the serial one"
        )
        if jobs > 1:
            cold_p, _, _ = _best_cold(grid, jobs, parallel_store, repeats)
            warm_p, warm_p_cfg, _ = _run_f1(
                grid, jobs=jobs, cache_dir=os.path.join(parallel_store, "rep0")
            )
            results["parallel_cold"] = {"seconds": cold_p, "jobs": jobs}
            results["parallel_warm"] = {
                "seconds": warm_p,
                "jobs": jobs,
                "cache_misses": warm_p_cfg.cache.misses,
            }
            parallel_speedup = round(cold_s / max(cold_p, 1e-9), 2)
            parallel_note = None

    return {
        "benchmark": "F1 width sweep runtime",
        "soc": soc.name,
        "grid": {k: list(v) if not isinstance(v, (int, str)) else v
                 for k, v in grid.items() if k != "soc"},
        "quick": quick,
        "results": results,
        "speedup": {
            "warm_cache_vs_cold": round(results["serial_cold"]["seconds"]
                                        / max(results["serial_warm"]["seconds"], 1e-9), 2),
            "parallel_vs_serial_cold": parallel_speedup,
        },
        "parallel_note": parallel_note,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced grid for CI smoke runs")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker count for the parallel legs (default: 0 = one "
                             "per core; forcing more workers than cores oversubscribes "
                             "CPU-bound solves and measures scheduler thrash, not the "
                             "runtime)")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="repetitions per cold leg, best (min) wall time kept "
                             "(default: 3; --quick uses 1)")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                             / "BENCH_runtime.json"),
                        help="output JSON path (default: repo-root BENCH_runtime.json)")
    args = parser.parse_args(argv)

    payload = run_bench(quick=args.quick, jobs=resolve_workers(args.jobs),
                        repeats=1 if args.quick else args.repeats)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    r = payload["results"]
    print(f"serial cold   : {r['serial_cold']['seconds']:7.2f}s "
          f"({r['serial_cold']['cache_misses']} solves)")
    print(f"serial warm   : {r['serial_warm']['seconds']:7.2f}s "
          f"({r['serial_warm']['cache_misses']} fresh solves)")
    if payload["parallel_note"] is None:
        print(f"parallel cold : {r['parallel_cold']['seconds']:7.2f}s "
              f"(jobs={r['parallel_cold']['jobs']})")
        print(f"parallel warm : {r['parallel_warm']['seconds']:7.2f}s")
    else:
        print(f"parallel      : skipped ({payload['parallel_note']})")
    parallel = payload["speedup"]["parallel_vs_serial_cold"]
    print(f"speedups      : warm-cache {payload['speedup']['warm_cache_vs_cold']}x, "
          f"parallel {'n/a' if parallel is None else f'{parallel}x'}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
