"""RunTelemetry folds: derived from the dataclass fields, each counter once."""

from __future__ import annotations

from dataclasses import fields

from repro.ilp.solution import SolveStats
from repro.runtime.telemetry import RunTelemetry

SHARED = sorted(
    {spec.name for spec in fields(SolveStats)} & {spec.name for spec in fields(RunTelemetry)}
)


def distinct_values(names):
    """A different power of two per name, so a double fold cannot hide."""
    return {name: 2 ** (k + 1) for k, name in enumerate(names)}


class TestCounterFold:
    def test_shared_counters_include_the_solver_work(self):
        assert {"nodes", "lp_solves", "lp_iterations", "wall_time", "retries"} <= set(SHARED)
        assert "cache_hit" not in SHARED

    def test_record_folds_each_shared_counter_once(self):
        values = distinct_values(SHARED)
        telemetry = RunTelemetry()
        telemetry.record(SolveStats(**values))
        folded = telemetry.as_dict()
        for name, value in values.items():
            assert folded[name] == value, name
        assert telemetry.solves == telemetry.cache_misses == 1
        assert telemetry.cache_hits == 0

    def test_cache_hit_folds_no_work(self):
        telemetry = RunTelemetry()
        telemetry.record(SolveStats(cache_hit=True, **distinct_values(SHARED)))
        assert telemetry.solves == telemetry.cache_hits == 1
        assert all(getattr(telemetry, name) == 0 for name in SHARED)

    def test_merge_folds_every_counter_but_jobs(self):
        names = [spec.name for spec in fields(RunTelemetry)]
        values = distinct_values(names)
        other = RunTelemetry(**values)
        telemetry = RunTelemetry(jobs=3)
        telemetry.merge(other)
        telemetry.merge(None)
        merged = telemetry.as_dict()
        for name, value in values.items():
            assert merged[name] == (3 if name == "jobs" else value), name
