"""The ``service`` workload: ``repro serve`` driven by an open-loop generator.

The server runs as its own process with one solver worker thread and a
fresh cache directory and tenant per run. A single-threaded generator
sends requests on a fixed schedule whatever the server's state (open
loop), holding at most one connection at a time, and polls every
outstanding job at a fixed interval. A request's latency runs from when
it was *due* to when the poll that saw its result returned, so a stall
also charges the requests queued behind it.

The mix is 40% repeats of a small hot set (solution-cache hits and
in-flight dedupe joins: the reads) and 60% fresh seeded ITC10 designs
(misses that solve and then store: the writes).

With tracing on, the server is started through
:mod:`perfbench.traced_server`; the run plays the schedule once untraced
and once traced (on a fresh tenant, with the server's memos emptied in
between), and the server hands its layer totals over when it stops.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from perfbench.check import Instance, bound_violation, geomean

ROOT = Path(__file__).resolve().parent.parent

#: Offered load, poll interval, and per-request give-up time. At 8 rps the
#: worker is about 15% busy; at 12 rps queueing amplified host noise enough
#: to move the tail latency by a third between runs.
RATE_RPS = 8.0
POLL_S = 0.005
TIMEOUT_S = 30.0
#: Seconds kept free at the end of a run for the last requests to drain.
DRAIN_S = 2.0
#: Server starts per run: the median start is ``setup_s``; the last one serves.
SERVER_STARTS = 3

HOT_SET = (
    {"kind": "design", "soc": "S1", "widths": [16, 16, 16]},
    {"kind": "design", "soc": "S1", "widths": [16, 16]},
    {"kind": "design", "soc": "S1", "widths": [32, 16]},
    {"kind": "design", "soc": "S1", "widths": [16, 8, 8]},
)
#: Share of requests drawn from the hot set. Below one half, so the median
#: latency falls inside the (continuous) miss distribution rather than in
#: the gap between the hit and miss modes.
HOT_SHARE = 0.4
#: Fresh ITC10 designs on two buses cost 6-50 ms to solve; on three buses
#: the tail reaches 200 ms and dominates every latency percentile.
FRESH_WIDTHS = [16, 16]


def schedule(seed: int, seconds: float) -> list[tuple[float, dict]]:
    """``(due offset, request)`` pairs at a fixed rate.

    Exactly :data:`HOT_SHARE` of the requests are hot, in a seeded order:
    a share that drifted from run to run would move the median by itself.
    """
    rng = random.Random(seed)
    count = max(1, int((seconds - DRAIN_S) * RATE_RPS))
    hot = round(count * HOT_SHARE)
    kinds = [True] * hot + [False] * (count - hot)
    rng.shuffle(kinds)
    plan = []
    for k, is_hot in enumerate(kinds):
        if is_hot:
            request = dict(HOT_SET[rng.randrange(len(HOT_SET))])
        else:
            request = {"kind": "design", "soc": f"ITC10:{seed * 100_000 + k}",
                       "widths": FRESH_WIDTHS}
        plan.append((k / RATE_RPS, request))
    return plan


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, workdir: Path, traced: bool, tag: str):
        self.port_file = workdir / f"{tag}.port"
        self.trace_file = workdir / f"{tag}.trace.json"
        serve = ["serve", "--port", "0", "--port-file", str(self.port_file),
                 "--workers", "1", "--cache", str(workdir / f"{tag}-cache"),
                 "--state-dir", str(workdir / f"{tag}-state")]
        if traced:
            cmd = [sys.executable, str(ROOT / "perfbench" / "traced_server.py"),
                   "--trace-out", str(self.trace_file), "--", *serve]
        else:
            cmd = [sys.executable, "-m", "repro", *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self.stderr_file = workdir / f"{tag}.stderr"
        start = time.perf_counter()
        with open(self.stderr_file, "wb") as stderr:
            self.proc = subprocess.Popen(cmd, env=env, cwd=ROOT,
                                         stdout=subprocess.DEVNULL, stderr=stderr)
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - start

    def _wait_ready(self) -> int:
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.stderr_file.read_text()[-500:]}")
            try:
                port = int(self.port_file.read_text())
                if request(port, "GET", "/v1/health")[0] == 200:
                    return port
            except (OSError, ValueError, http.client.HTTPException):
                pass
            time.sleep(0.002)
        raise RuntimeError("server did not answer /v1/health within 60 s")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def signal(self, signum) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def request(port: int, method: str, path: str, body: dict | None = None):
    """One HTTP exchange on its own connection (the server closes after each)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def _exchange(port: int, method: str, path: str, body: dict | None = None):
    """:func:`request`, with a transport failure as status 0 (a failed op)."""
    try:
        return request(port, method, path, body)
    except (OSError, ValueError, http.client.HTTPException) as exc:
        return 0, {"error": f"{type(exc).__name__}: {exc}"}


def drive(port: int, plan: list[tuple[float, dict]], tenant: str) -> list[dict]:
    """Play ``plan`` open-loop; one record per request, in schedule order."""
    records = [{"due": due, "request": req} for due, req in plan]
    pending = 0
    outstanding: dict[int, float] = {}  # record index -> next poll time
    t0 = time.perf_counter()
    while pending < len(records) or outstanding:
        now = time.perf_counter() - t0
        if pending < len(records) and records[pending]["due"] <= now:
            rec = records[pending]
            pending += 1
            rec["late"] = now - rec["due"]
            status, body = _exchange(port, "POST", "/v1/jobs",
                                     {"request": rec["request"], "tenant": tenant})
            if status != 202:
                rec["error"] = f"submit HTTP {status}: {body}"
                continue
            rec["job"] = body["job"]["id"]
            rec["deduped"] = body["deduped"]
            outstanding[pending - 1] = time.perf_counter() - t0 + POLL_S
            continue
        due_polls = [i for i, at in outstanding.items() if at <= now]
        for i in due_polls:
            rec = records[i]
            status, body = _exchange(port, "GET", f"/v1/jobs/{rec['job']}/result")
            seen = time.perf_counter() - t0
            if status == 200:
                rec["latency"] = seen - rec["due"]
                rec["job_payload"] = body["job"]
                rec["result"] = body["result"]
                del outstanding[i]
            elif status == 409 and seen - rec["due"] < TIMEOUT_S:
                outstanding[i] = seen + POLL_S
            else:
                rec["error"] = f"result HTTP {status}: {body.get('error', body)}"
                del outstanding[i]
        if due_polls:
            continue
        wake = min(list(outstanding.values())
                   + ([records[pending]["due"]] if pending < len(records) else []))
        time.sleep(max(0.0, wake - (time.perf_counter() - t0)))
    return records


class _Checker:
    """Re-checks service answers against locally built instances."""

    def __init__(self):
        self.instances: dict[str, Instance] = {}

    def __call__(self, rec: dict) -> list[str]:
        from repro.api import resolve_soc

        req = rec["request"]
        key = json.dumps(req, sort_keys=True)
        if key not in self.instances:
            self.instances[key] = Instance(key, resolve_soc(req["soc"]), req["widths"])
        instance = self.instances[key]
        result = rec["result"]
        if result.get("status") != "optimal":
            return [f"{key}: status {result.get('status')}"]
        bus_of = instance.bus_of_names(result["assignment"])
        return instance.check(bus_of, result["makespan"]) if bus_of else [
            f"{key}: assignment names the wrong cores"]


def summarize(records: list[dict], checker) -> dict:
    errors, latencies, ratios, waits, http_ms = [], [], [], [], []
    run_hit, run_miss = [], []
    violations = failed = 0
    for rec in records:
        problems = [rec["error"]] if "error" in rec else (
            checker(rec) if "latency" in rec else [f"{rec['request']}: no result"])
        if problems:
            # A failed request misses every latency limit.
            failed += 1
            errors.extend(problems)
            latencies.append(TIMEOUT_S * 1000)
            continue
        result, job = rec["result"], rec["job_payload"]
        latencies.append(rec["latency"] * 1000)
        instance = checker.instances[json.dumps(rec["request"], sort_keys=True)]
        ratios.append(result["makespan"] / instance.lower_bound)
        violations += bound_violation(result["stats"]["best_bound"], result["makespan"])
        wait, run = job.get("wait_time", 0.0), job.get("run_time", 0.0)
        waits.append(wait * 1000)
        (run_hit if result["stats"]["cache_hit"] else run_miss).append(run * 1000)
        http_ms.append(rec["latency"] * 1000 - (wait + run) * 1000)
    answered = [r for r in records if "latency" in r]
    return {
        "errors": errors,
        "failed": failed,
        "latencies": latencies,
        "ratios": ratios,
        "bound_violations": violations,
        "wall": max(r["due"] + r["latency"] for r in answered) if answered else 0.0,
        "late_ms": max(r.get("late", 0.0) for r in records) * 1000,
        "wait_ms": statistics.median(waits) if waits else 0.0,
        "run_ms_hit": statistics.median(run_hit) if run_hit else 0.0,
        "run_ms_miss": statistics.median(run_miss) if run_miss else 0.0,
        "run_total": sum(run_hit) + sum(run_miss),
        "http_ms": statistics.median(http_ms) if http_ms else 0.0,
        "dedupe_joins": sum(1 for r in answered if r.get("deduped")),
    }


def run_service(seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.run import tail

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="service-", dir=out))
    servers: list[Server] = []
    try:
        for k in range(SERVER_STARTS):
            server = Server(workdir, traced=trace, tag=f"s{k}")
            servers.append(server)
            if k < SERVER_STARTS - 1:
                server.stop()
        server = servers[-1]
        checker = _Checker()
        phases = 2 if trace else 1
        plan = schedule(seed, seconds / phases)
        tenant = f"bench-{seed}-{os.getpid()}"
        untraced = summarize(drive(server.port, plan, tenant + "-a"), checker)
        traced = None
        if trace:
            server.signal(signal.SIGUSR1)  # memos emptied, tracer installed
            request(server.port, "GET", "/v1/health")
            traced = summarize(drive(server.port, plan, tenant + "-b"), checker)
        status, metrics = request(server.port, "GET", "/v1/metrics")
        if status != 200:
            raise RuntimeError(f"/v1/metrics answered HTTP {status}")
        rss = server.peak_rss_mb()
        server.stop()
        starts = [s.start_s for s in servers]
        snapshot = json.loads(server.trace_file.read_text()) if trace else None
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    tail_pct, tail_ms = tail(untraced["latencies"])
    errors = untraced["errors"] + (traced["errors"] if traced else [])
    result = {
        "attempted": len(plan) * phases,
        "failed": untraced["failed"] + (traced["failed"] if traced else 0),
        "errors": errors,
        "passes": phases,
        "setup_samples_s": starts,
        "op_samples": len(untraced["latencies"]),
        "op_tail_percentile": tail_pct,
        "bound_violations": untraced["bound_violations"],
        "notes": {"rate_rps": RATE_RPS, "poll_ms": POLL_S * 1000,
                  "late_ms": untraced["late_ms"]},
        "end_to_end": {
            "setup_s": statistics.median(starts),
            "wall_s": untraced["wall"],
            "op_p50_ms": statistics.median(untraced["latencies"]),
            "op_tail_ms": tail_ms,
            "makespan_over_lb": geomean(untraced["ratios"]),
            "peak_rss_mb": rss,
        },
    }
    if trace:
        result["per_layer"] = _service_layers(snapshot, metrics, tenant, traced, untraced, errors)
    return result


def _service_layers(snap, metrics, tenant, traced, untraced, errors) -> dict:
    from perfbench.layers import layer_metrics, missing_layers

    missing = missing_layers(snap, "service")
    if missing:
        errors.append(f"entry points recorded no call: {', '.join(missing)}")
    cache = metrics["caches"].get(tenant + "-b", {"hits": 0, "misses": 0})
    lookups = cache["hits"] + cache["misses"]
    return layer_metrics(snap, 1, {
        "runtime.cache.hits": cache["hits"],
        "runtime.cache.misses": cache["misses"],
        "runtime.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "service.wait_ms": traced["wait_ms"],
        "service.run_ms_hit": traced["run_ms_hit"],
        "service.run_ms_miss": traced["run_ms_miss"],
        "service.http_ms": traced["http_ms"],
        "service.dedupe_joins": traced["dedupe_joins"],
        "loadgen.late_ms": traced["late_ms"],
        "trace.overhead": traced["run_total"] / untraced["run_total"]
        if untraced["run_total"] else 0.0,
    })
