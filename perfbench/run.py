"""The repo benchmark: one command, four workloads, every answer checked.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``sweep``   — the paper's outer loop, ``design_best_architecture`` over
  the F1 grid on S1 (serialization timing) and an ITC8 system (flexible
  timing);
- ``exact``   — proofs of optimality on a fixed ITC'02-class set, each
  optimum checked against scipy HiGHS;
- ``anytime`` — ``design()`` under a fixed node budget on scale128 and
  seeded ITC96 systems;
- ``service`` — ``repro serve`` in its own process, one solver worker,
  driven open-loop by a single-connection generator.

With ``--trace 0`` the run is uninstrumented and prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
prints the per-layer metrics (see :mod:`perfbench.layers`) and
``trace.overhead``. The last line of standard output is always one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread on every commit measured, set before numpy loads; the
# service's server process inherits it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_SETUPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "makespan_over_lb": "ratio",
    "peak_rss_mb": "MB",
}

WORKLOADS = ("sweep", "exact", "anytime", "service")


def _import_paths() -> None:
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def tail(samples: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with >= 10 samples beyond it.

    Below 20 samples that percentile would not even reach the median, so
    the maximum is reported as the 100th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def host_fingerprint() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # older numpy: no dict config
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Ask the loaded OpenBLAS for its thread count (None when unknown)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.argtypes, func.restype = [], ctypes.c_int
                return func()
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------- set-up
def setup_probe(workload: str, seed: int) -> int:
    """Child side of ``setup_s``: import, build inputs, announce readiness."""
    _import_paths()
    from perfbench.workloads import BATCH_WORKLOADS

    import repro.api  # noqa: F401 - the import is part of what set-up costs

    BATCH_WORKLOADS[workload](seed).setup()
    print("ready", flush=True)
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Process start to first operation ready, in fresh processes."""
    samples = []
    for _ in range(BENCH_SETUPS):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        if child.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed for {workload}")
        samples.append(elapsed)
    return samples


# -------------------------------------------------------------------- batch
def run_batch(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.check import geomean
    from perfbench.layers import Recorder, layer_metrics, missing_layers
    from perfbench.workloads import BATCH_WORKLOADS

    setup = measure_setup(workload, seed)
    bench = BATCH_WORKLOADS[workload](seed)
    bench.setup()
    notes = bench.prepare()
    errors: list[str] = notes.pop("errors", [])
    recorder = Recorder() if trace else None

    passes = []  # (traced, wall, records)
    cpu = []
    for index in range(max(2, round(seconds / bench.pass_seconds))):
        traced = trace and index % 2 == 1
        if traced:
            recorder.tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            raw = bench.run_pass()
        finally:
            wall = time.perf_counter() - t0
            cpu.append(time.process_time() - c0)
            if traced:
                recorder.tracer.uninstall()
        passes.append((traced, wall, bench.check_pass(raw)))

    signatures = {tuple(r.counters for r in records) for _, _, records in passes}
    if len(signatures) != 1:
        errors.append("work counters differ between passes of one seed")
    # Equal digests across runs of one commit and seed: the search repeated.
    digest = hashlib.sha256(repr(sorted(signatures)).encode()).hexdigest()[:16]
    attempted = sum(len(records) for _, _, records in passes)
    failed = sum(1 for _, _, records in passes for r in records if r.errors)
    for _, _, records in passes:
        for record in records:
            errors.extend(record.errors)

    plain = [(w, records) for traced, w, records in passes if not traced]
    first = passes[0][2]
    latencies = [r.seconds * 1000 for _, records in plain for r in records]
    tail_pct, tail_ms = tail(latencies)

    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "passes": len(passes),
        "pass_walls_s": [round(w, 4) for _, w, _ in passes],
        "pass_cpu_s": [round(c, 4) for c in cpu],
        "setup_samples_s": setup,
        "op_samples": len(latencies),
        "op_tail_percentile": tail_pct,
        "bound_violations": sum(r.bound_violations for r in first),
        "counters_digest": digest,
        "notes": notes,
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(w for w, _ in plain),
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": tail_ms,
            "makespan_over_lb": geomean(
                r.makespan / r.lower_bound for r in first if not r.errors),
            "peak_rss_mb": peak_rss_mb(),
        },
    }
    if trace:
        snap = recorder.snapshot()
        missing = missing_layers(snap, workload)
        if missing:
            errors.append(f"entry points recorded no call: {', '.join(missing)}")
        traced_walls = [w for traced, w, _ in passes if traced]
        overhead = statistics.median(traced_walls) / statistics.median(w for w, _ in plain)
        result["per_layer"] = layer_metrics(snap, len(traced_walls), {"trace.overhead": overhead})
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        recorder.tracer.write(out / f"trace-{workload}-{seed}.json")
    return result


# --------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A shell that starts us in the background ignores SIGINT, and an
    # ignored signal stays ignored in every child: the service's server
    # would then never see the SIGINT that stops it cleanly.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    _import_paths()

    if args.workload == "service":
        from perfbench.service import run_service

        result = run_service(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_batch(args.workload, args.seed, args.seconds, bool(args.trace))

    host = host_fingerprint()
    summary = {k: v for k, v in result.items() if k not in ("end_to_end", "per_layer")}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "host": host, **summary},
                     default=str))
    print(f"bound_violations={result['bound_violations']} "
          f"op_tail=p{result['op_tail_percentile']:.1f} of n={result['op_samples']}")
    for error in result["errors"][:20]:
        print(f"FAIL {error}")
    if args.trace:
        from perfbench.layers import PER_LAYER_UNITS

        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
