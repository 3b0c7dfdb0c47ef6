"""The served workload: a closed loop against a ``gpo serve`` daemon.

Two client connections share one queue of jobs.  Each client submits a
job, follows its NDJSON event stream to the end, then takes the next
job, so the daemon (one worker process) always has one job running and
one queued.  A pass starts a fresh daemon on a fresh cache directory,
runs the cold phase (every job computed), replays the same jobs warm
(every job answered from the result cache) ``WARM_REPLAYS`` times and
stops the daemon.  Each phase sends the jobs in its own order, drawn
from the seed.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import summary
import workloads

CLIENTS = 2
WORKERS = 1
#: Warm replays per pass, each in its own order: a hit's latency depends
#: on which request it meets in the daemon, so one replay is too few.
WARM_REPLAYS = 2
MAX_SECONDS = 60.0


class Daemon:
    """One ``gpo serve`` process on an OS-chosen port and a fresh cache
    directory; ``async with`` starts it and stops it again."""

    def __init__(self, root: Path, cache_dir: Path) -> None:
        self.root = root
        self.cache_dir = cache_dir
        self.proc: subprocess.Popen[str] | None = None
        self.port = 0
        #: Seconds from process start until ``/healthz`` answered.
        self.setup_s = 0.0

    async def __aenter__(self) -> Daemon:
        from repro.serve.client import ServeClient

        shutil.rmtree(self.cache_dir, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        begin = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", str(WORKERS), "--cache-dir", str(self.cache_dir),
             "--max-seconds", str(MAX_SECONDS)],
            cwd=self.root, env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            assert self.proc.stdout is not None
            # The daemon prints its bound address once it listens.
            line = await asyncio.to_thread(self.proc.stdout.readline)
            if "listening on http://" not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            address = line.split("listening on http://", 1)[1].split()[0]
            self.port = int(address.rsplit(":", 1)[1])
            health = await ServeClient("127.0.0.1", self.port).request("GET", "/healthz")
            if health.status != 200:
                raise RuntimeError(f"/healthz answered {health.status}")
        except BaseException:
            self._stop()
            raise
        self.setup_s = time.perf_counter() - begin
        return self

    async def __aexit__(self, *exc: object) -> None:
        self._stop()

    def _stop(self) -> None:
        assert self.proc is not None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _bodies(jobs: list[workloads.ServedJob]) -> list[dict[str, Any]]:
    from repro.net.parser import to_text

    texts: dict[tuple[str, int], str] = {}
    bodies = []
    for job in jobs:
        key = (job.family, job.size)
        if key not in texts:
            texts[key] = to_text(workloads.build_net(job.family, job.size))
        body = {
            "net": texts[key], "format": "native", "method": job.method,
            "max_states": workloads.MAX_STATES, "max_seconds": MAX_SECONDS,
            "tenant": "bench", "reduce": job.reduce,
        }
        if job.query != "deadlock":
            body["property"] = job.query
        bodies.append(body)
    return bodies


async def _one(client: Any, job: workloads.ServedJob, body: dict[str, Any],
               expected: dict[str, Any], traced: bool) -> dict[str, Any]:
    """Submit one job and follow its event stream to the end."""
    begin = time.perf_counter()
    response = await client.request("POST", "/v1/jobs", body)
    submitted = time.perf_counter()
    row: dict[str, Any] = {"job": job, "submit_s": submitted - begin, "failure": None}
    if response.status not in (200, 202):
        row["failure"] = f"{job.name}: submit answered {response.status}: {response.body[:200]!r}"
        return row
    status = response.json()
    row["cached"] = response.status == 200
    verdict = status.get("verdict")
    async for event in client.stream_events(status["id"]):
        if event["kind"] in ("finished", "crashed", "killed", "cancelled"):
            row["terminal"] = event
            if event["kind"] == "finished":
                verdict = event.get("detail")
    end = time.perf_counter()
    row["latency"] = end - begin
    want = workloads.expected_verdict(expected, job)
    terminal = row.get("terminal", {})
    if terminal.get("kind", "finished") != "finished":
        row["failure"] = f"{job.name}: {terminal['kind']}: {terminal.get('detail')}"
    elif verdict != want:
        row["failure"] = f"{job.name}: verdict {verdict!r}, expected {want!r}"
    if traced:
        detail = await client.request("GET", f"/v1/jobs/{status['id']}")
        row["status"] = detail.json()
    return row


async def _phase(client: Any, jobs: list[workloads.ServedJob], bodies: list[dict[str, Any]],
                 order: list[int], expected: dict[str, Any],
                 traced: bool) -> tuple[list[dict[str, Any]], float]:
    """Closed loop: ``CLIENTS`` workers drain the jobs in ``order``."""
    rows: list[dict[str, Any]] = []
    cursor = iter(order)

    async def worker() -> None:
        for index in cursor:
            rows.append(await _one(client, jobs[index], bodies[index], expected, traced))

    begin = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(CLIENTS)))
    return rows, time.perf_counter() - begin


def _metric_sums(text: str) -> dict[str, float]:
    """``name_sum`` / ``name_count`` totals over all label sets."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, _, value = line.rpartition(" ")
        base = name.split("{", 1)[0]
        if base.endswith(("_sum", "_count")):
            out[base] = out.get(base, 0.0) + float(value)
    return out


async def _pass(root: Path, out_dir: Path, seed: int, tag: str,
                jobs: list[workloads.ServedJob], bodies: list[dict[str, Any]],
                expected: dict[str, Any], traced: bool) -> dict[str, Any]:
    """Fresh daemon: the cold phase, then ``WARM_REPLAYS`` warm replays."""
    from repro.serve.client import ServeClient

    async with Daemon(root, out_dir / f"serve-cache-{seed}-{tag}") as daemon:
        client = ServeClient("127.0.0.1", daemon.port)
        order = workloads.served_order(len(jobs), seed, f"{tag}/cold")
        cold, cold_wall = await _phase(client, jobs, bodies, order, expected, traced)
        scraped = None
        if traced:
            scraped = _metric_sums((await client.request("GET", "/metrics")).body.decode())
        warm: list[dict[str, Any]] = []
        warm_wall = 0.0
        for replay in range(WARM_REPLAYS):
            order = workloads.served_order(len(jobs), seed, f"{tag}/warm{replay}")
            rows, wall = await _phase(client, jobs, bodies, order, expected, traced)
            warm += rows
            warm_wall += wall
    return {"setup": daemon.setup_s, "cold": cold, "cold_wall": cold_wall,
            "warm": warm, "warm_wall": warm_wall, "metrics": scraped}


async def _setup_only(root: Path, out_dir: Path, tag: str) -> float:
    async with Daemon(root, out_dir / f"serve-cache-{tag}") as daemon:
        pass
    return daemon.setup_s


async def _run(root: Path, workload_seed: int, seconds: float, trace: bool,
               expected: dict[str, Any], out_dir: Path) -> dict[str, Any]:
    prep_begin = time.perf_counter()
    jobs = workloads.served_jobs(expected)
    bodies = _bodies(jobs)
    prep = time.perf_counter() - prep_begin
    report: dict[str, Any] = {"failures": [], "attempted": 0}
    passes: list[dict[str, Any]] = []
    setups: list[float] = []

    def account(done: dict[str, Any]) -> None:
        setups.append(prep + done["setup"])
        for row in done["cold"] + done["warm"]:
            report["attempted"] += 1
            if row["failure"] is not None:
                report["failures"].append(row["failure"])

    started = time.perf_counter()
    if trace:
        plain = await _pass(root, out_dir, workload_seed, "plain", jobs, bodies, expected, False)
        account(plain)
        traced = await _pass(root, out_dir, workload_seed, "traced", jobs, bodies, expected, True)
        account(traced)
        report["per_layer"] = per_layer(traced, plain["cold_wall"])
        return report

    while True:
        done = await _pass(root, out_dir, workload_seed, f"pass{len(passes)}", jobs, bodies,
                           expected, False)
        passes.append(done)
        account(done)
        # One extra daemon start between passes spreads the set-up
        # samples over the run.
        if len(setups) < summary.SETUP_SAMPLES:
            setups.append(prep + await _setup_only(root, out_dir, f"{workload_seed}-{len(setups)}"))
        elapsed = time.perf_counter() - started
        one = summary.median([p["cold_wall"] + p["warm_wall"] + p["setup"] for p in passes])
        if elapsed + one > seconds:
            break
    while len(setups) < summary.SETUP_SAMPLES:
        setups.append(prep + await _setup_only(root, out_dir, f"{workload_seed}-{len(setups)}"))

    cold = [row["latency"] for p in passes for row in p["cold"] if "latency" in row]
    warm = [row["latency"] for p in passes for row in p["warm"] if "latency" in row]
    # The largest worker of each pass: it forks from a daemon that has
    # grown by every job before it, so the pass's order moves it.
    rss = [max((row["terminal"].get("peak_rss_kb", 0) for row in p["cold"] if "terminal" in row),
               default=0) for p in passes]
    cold_wall = sum(p["cold_wall"] for p in passes)
    report["metrics"] = {
        "setup_s": (summary.median(setups), "s", len(setups)),
        "wall_s": (summary.median([p["cold_wall"] + p["warm_wall"] for p in passes]), "s",
                   len(passes)),
        "job_s_geomean": (summary.geomean(cold), "s", len(cold)),
        "peak_rss_mb": (summary.median(rss) / 1024.0, "MB", len(rss)),
        "throughput_jobs_per_s": (len(cold) / cold_wall, "1/s", len(cold)),
    }
    report["extra_metrics"] = {
        "latency_s_p50": (summary.median(cold), "s", len(cold)),
        "hit_latency_s_p50": (summary.median(warm), "s", len(warm)),
    }
    p90 = summary.percentile(cold, 0.9)
    if p90 is not None:
        report["extra_metrics"]["latency_s_p90"] = (p90, "s", len(cold))
    return report


def per_layer(
    traced: dict[str, Any], untraced_cold_wall: float
) -> dict[str, tuple[float, str, int]]:
    """Serving-layer numbers of the traced pass's cold phase, summed over
    its jobs.  ``engine.unattributed_s`` is worker time outside the
    analyzer's own clock (fork, certificate, result shipping)."""
    rows = [row for row in traced["cold"] if "status" in row]
    sums = traced["metrics"] or {}
    n = len(rows)
    latency = sum(row["latency"] for row in rows)
    queue_wait = sum(row["status"].get("queue_wait_seconds") or 0.0 for row in rows)
    search = sums.get("serve_search_seconds_sum", 0.0)
    serialize = sums.get("serve_serialize_seconds_sum", 0.0)
    rules = 0
    unattributed: dict[str, float] = {}
    worker_wall = 0.0
    for row in rows:
        status = row["status"]
        result = status.get("result") or {}
        reduce = (result.get("extras") or {}).get("reduce") or {}
        rules += sum(reduce.get("rules", {}).values())
        wall = status.get("wall_seconds") or 0.0
        worker_wall += wall
        method = status["method"]
        outside = wall - result.get("time_seconds", 0.0)
        unattributed[method] = unattributed.get(method, 0.0) + outside
    warm = traced["warm"]
    hits = sum(1 for row in warm if row.get("cached"))
    out = {
        "serve.submit_s": (sum(row["submit_s"] for row in rows), "s", n),
        "serve.queue_wait_s": (queue_wait, "s", n),
        "serve.search_s": (search, "s", int(sums.get("serve_search_seconds_count", 0))),
        "serve.serialize_s": (serialize, "s", int(sums.get("serve_serialize_seconds_count", 0))),
        "pool.overhead_s": (latency - queue_wait - search - serialize, "s", n),
        "cache.hit_frac": (hits / len(warm) if warm else 0.0, "ratio", len(warm)),
        "reduce.reduce_s": (sums.get("serve_reduce_seconds_sum", 0.0), "s",
                            int(sums.get("serve_reduce_seconds_count", 0))),
        "reduce.rules_applied": (rules, "count", n),
        "engine.unattributed_s": (sum(unattributed.values()), "s", n),
        "engine.unattributed_frac": (
            sum(unattributed.values()) / worker_wall if worker_wall else 0.0, "ratio", n),
        "obs.trace_overhead_frac": (traced["cold_wall"] / untraced_cold_wall - 1.0, "ratio", 2),
    }
    for method, value in unattributed.items():
        count = sum(1 for row in rows if row["status"]["method"] == method)
        out[f"engine.unattributed_s.{method}"] = (value, "s", count)
    return out


def run(workload_seed: int, seconds: float, trace: bool, expected: dict[str, Any],
        out_dir: Path, root: Path) -> dict[str, Any]:
    return asyncio.run(_run(root, workload_seed, seconds, trace, expected, out_dir))
