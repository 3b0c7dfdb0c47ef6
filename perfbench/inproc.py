"""The in-process workloads: ``execute_job`` on freshly built nets.

Every job runs on a net built for it (so it pays for its own
certificate and kernel, as a user's first call does), one job after
another, and every verdict is checked against the known answers.
Times are scaled to a nominal host speed (``pace.py``).
"""

from __future__ import annotations

import gc
import multiprocessing
import time
from typing import Any, Callable

import summary
import workloads
from pace import Pace
from spans import ROOT, SpanRecorder, self_times

ANALYZERS = ("gpo", "full", "stubborn", "parallel", "unfolding", "symbolic")
EXPLICIT = ("full", "stubborn", "parallel")
_FORK = multiprocessing.get_context("fork")
#: Jobs shorter than this run up to ``MAX_REPEATS`` times a round.
SHORT_JOB_S = 0.1
MAX_REPEATS = 5


def warm_up(jobs: list[workloads.Job]) -> None:
    """Pull in lazily imported modules before anything is timed."""
    from repro.engine.jobs import Budget, VerificationJob, execute_job

    for analyzer in sorted({job.analyzer for job in jobs}):
        extra = next(job.extra for job in jobs if job.analyzer == analyzer)
        net = workloads.build_net("NSDP", 2)
        execute_job(VerificationJob(net, analyzer, Budget(1000, 30.0, dict(extra))))


def _verification_job(job: workloads.Job) -> Any:
    from repro.engine.jobs import Budget, VerificationJob

    net = workloads.build_net(job.family, job.size)
    budget = Budget(workloads.MAX_STATES, workloads.MAX_SECONDS, dict(job.extra))
    return VerificationJob(net, job.analyzer, budget)


def _child(conn: Any, vjob: Any, recorder: SpanRecorder | None, index: int) -> None:
    """Forked worker: run one job, send back (time, result, peak RSS, spans)."""
    from repro.engine.jobs import execute_job

    begin = time.perf_counter()
    try:
        if recorder is None:
            result = execute_job(vjob)
        else:
            recorder.spans.clear()
            result = recorder.run_job(index, execute_job, vjob)
            result.extras["_bdd"] = [(m.ite_calls, m.ite_hits) for m in recorder.managers]
        elapsed = time.perf_counter() - begin
        conn.send(("ok", elapsed, result, summary.peak_rss_mb(),
                   recorder.spans if recorder is not None else None))
    except Exception as exc:  # noqa: BLE001 - reported to the parent as a failed job
        conn.send(("error", f"{type(exc).__name__}: {exc}", time.perf_counter() - begin,
                   summary.peak_rss_mb()))
    finally:
        conn.close()


def _run_one(job: workloads.Job, expected: dict[str, Any], failures: list[str],
             recorder: SpanRecorder | None = None, index: int = -1) -> dict[str, Any]:
    """Run ``job`` once on a fresh net, in a child forked for it.

    The parent never runs a job itself, so every job starts from the same
    heap, whatever ran before it: its time and its peak memory do not
    depend on the order the seed drew.  (This process starts no threads,
    so forking it is safe.)
    """
    vjob = _verification_job(job)
    gc.collect()
    # Frozen objects are never traversed by the child's collector, so the
    # child does not copy the parent's whole heap page by page.
    gc.freeze()
    receiver, sender = _FORK.Pipe(duplex=False)
    child = _FORK.Process(target=_child, args=(sender, vjob, recorder, index))
    if recorder is None:
        child.start()
    else:
        # Only the child runs wrapped; this process stays unpatched.
        recorder.install()
        try:
            child.start()
        finally:
            recorder.uninstall()
    gc.unfreeze()
    sender.close()
    try:
        message = receiver.recv()
    except EOFError:
        message = None
    finally:
        receiver.close()
        child.join()
    if message is None:
        message = ("error", f"worker died with exit code {child.exitcode}", 0.0, 0.0)
    if message[0] == "error":
        failures.append(f"{job.name}: {message[1]}")
        return {"result": None, "seconds": message[2], "rss_mb": message[3]}
    _, elapsed, result, rss_mb, spans = message
    problem = workloads.check_result(expected, job, result)
    if problem is not None:
        failures.append(problem)
    return {"result": result, "seconds": elapsed, "rss_mb": rss_mb, "spans": spans}


def traced_pass(jobs: list[workloads.Job], expected: dict[str, Any]) -> dict[str, Any]:
    """Run every job twice, plain then traced, back to back (so host
    speed drifts hit both alike); merges the traced children's spans."""
    recorder = SpanRecorder()
    failures: list[str] = []
    spans: list[tuple[str, int, int, int, int]] = []
    results = []
    plain_s = traced_s = 0.0
    for index, job in enumerate(jobs):
        plain_s += _run_one(job, expected, failures)["seconds"]
        run = _run_one(job, expected, failures, recorder, index)
        traced_s += run["seconds"]
        results.append(run["result"])
        base = len(spans)
        for name, start, end, parent, owner in run.get("spans") or ():
            spans.append((name, start, end, parent + base if parent >= 0 else -1, owner))
    return {"results": results, "failures": failures, "spans": spans,
            "plain_seconds": plain_s, "traced_seconds": traced_s}


def measure(
    jobs: list[workloads.Job], expected: dict[str, Any], seconds: float,
    probe: Callable[[], float], pace: Pace,
) -> tuple[list[list[float]], list[list[float]], list[float], list[str]]:
    """Run the job list round and round for ``seconds``; returns each
    job's times and peak memory, the set-up times and the failures.

    Every job runs at least once.  After the first round, a job shorter
    than ``SHORT_JOB_S`` runs several times a round (short jobs are the
    noisiest, and cheap to repeat), and a run starts only if the job's
    median time still fits in what is left of the run.  The set-up
    ``probe`` runs at evenly spaced times between jobs, so no one moment
    of the run decides the set-up time.  Times are scaled to nominal
    host speed (``pace.py``).
    """
    # Raw (perf_counter midpoint, seconds) per run; scaled at the end,
    # once the host-speed samples on both sides of every run exist.
    raw: list[list[tuple[float, float]]] = [[] for _ in jobs]
    rss: list[list[float]] = [[] for _ in jobs]
    setup: list[tuple[float, float]] = []
    failures: list[str] = []

    def probe_at() -> tuple[float, float]:
        pace.tick()
        begin = time.perf_counter()
        elapsed = probe()
        return ((begin + time.perf_counter()) / 2, elapsed)

    start = time.perf_counter()
    while True:
        for index, job in enumerate(jobs):
            due = len(setup) * seconds / summary.SETUP_SAMPLES
            if len(setup) < summary.SETUP_SAMPLES and time.perf_counter() - start >= due:
                setup.append(probe_at())
            first_round = not raw[-1]
            typical = 0.0 if first_round else summary.median([t for _, t in raw[index]])
            repeats = 1
            if typical > 0:
                repeats = min(MAX_REPEATS, max(1, round(SHORT_JOB_S / typical)))
            for _ in range(repeats):
                if not first_round and time.perf_counter() - start + typical > seconds:
                    while len(setup) < summary.SETUP_SAMPLES:
                        setup.append(probe_at())
                    pace.sample()
                    times = [[pace.scale(at, t) for at, t in runs] for runs in raw]
                    return times, rss, [pace.scale(at, t) for at, t in setup], failures
                pace.tick()
                begin = time.perf_counter()
                run = _run_one(job, expected, failures)
                raw[index].append(((begin + time.perf_counter()) / 2, run["seconds"]))
                rss[index].append(run["rss_mb"])


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    expected: dict[str, Any],
    probe: Callable[[], float],
) -> dict[str, Any]:
    jobs = workloads.jobs_for(workload, seed)
    warm_up(jobs)
    report: dict[str, Any] = {}
    if trace:
        traced = traced_pass(jobs, expected)
        report["attempted"] = 2 * len(jobs)
        report["failures"] = traced["failures"]
        report["spans"] = traced["spans"]
        report["per_layer"] = per_layer(jobs, traced)
        return report

    with Pace() as pace:
        times, rss, setup, failures = measure(jobs, expected, seconds, probe, pace)
    runs = sum(len(t) for t in times)
    report["attempted"] = runs
    report["failures"] = failures
    # Per job, the median of its runs; the job set's wall time is the sum
    # of those medians, so one disturbed run moves nothing.
    per_job = [summary.median(t) for t in times]
    wall = sum(per_job)
    report["metrics"] = {
        "setup_s": (summary.median(setup), "s", len(setup)),
        "wall_s": (wall, "s", runs),
        "job_s_geomean": (summary.geomean(per_job), "s", runs),
        "peak_rss_mb": (max(summary.median(r) for r in rss), "MB", runs),
        "throughput_jobs_per_s": (len(jobs) / wall, "1/s", runs),
    }
    report["extra_metrics"] = {
        "latency_s_p50": (summary.median(per_job), "s", len(per_job)),
        "host_loop_ms": (pace.loop_ms(), "ms", len(pace.samples)),
    }
    return report


# ----------------------------------------------------------------------
def per_layer(
    jobs: list[workloads.Job], traced: dict[str, Any]
) -> dict[str, tuple[float, str, int]]:
    """Per-layer numbers of the traced pass.

    Times are self times summed over the pass; counts are the program's
    own counters read off each result.  Layers this workload does not
    run are left out (the report shows them as 0).
    """
    spans = traced["spans"]
    selfs = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, *_), own in zip(spans, selfs):
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
    analyzer_of = [job.analyzer for job in jobs]
    unattributed = dict.fromkeys(ANALYZERS, 0.0)
    job_total = 0.0
    # The explicit analyzers' search loops: whole time and self time.
    search_s = search_self_s = 0.0
    for (name, start, end, _, job), own in zip(spans, selfs):
        if name == ROOT:
            unattributed[analyzer_of[job]] += own
            job_total += (end - start) / 1e9
        elif name in ("search.explore", "parallel.explore") and analyzer_of[job] in EXPLICIT:
            search_s += (end - start) / 1e9
            search_self_s += own

    results = [(job, r) for job, r in zip(jobs, traced["results"]) if r is not None]

    def total(analyzers: tuple[str, ...], get: Any) -> float:
        return float(sum(get(r) for job, r in results if job.analyzer in analyzers))

    def extra(key: str) -> Any:
        return lambda r: r.extras.get(key, 0)

    def mean(analyzers: tuple[str, ...], key: str, weight: Any = None) -> float:
        rows = [(r.extras[key], weight(r) if weight else 1)
                for job, r in results if job.analyzer in analyzers and key in r.extras]
        weights = sum(w for _, w in rows)
        return sum(v * w for v, w in rows) / weights if weights else 0.0

    bdd = [counts for _, r in results for counts in r.extras.get("_bdd", ())]
    ite_calls = sum(c for c, _ in bdd)
    ite_hits = sum(h for _, h in bdd)
    search_states = total(EXPLICIT, lambda r: r.states)

    def s(name: str) -> tuple[float, str, int]:
        return (self_s.get(name, 0.0), "s", calls.get(name, 0))

    def c(value: float, unit: str = "count") -> tuple[float, str, int]:
        return (value, unit, len(results))

    out = {
        "static.certificate_s": s("static.certificate"),
        "static.certificate_calls": c(calls.get("static.certificate", 0)),
        "gpo.gpn_build_s": s("gpo.gpn_build"),
        "gpo.enabled_families_s": s("gpo.enabled_families"),
        "gpo.multiple_fire_s": s("gpo.multiple_fire"),
        "gpo.states": c(total(("gpo",), lambda r: r.states)),
        "gpo.mean_scenarios": c(mean(("gpo",), "mean_scenarios")),
        "bdd.relprod_s": s("bdd.relprod"),
        "bdd.relprod_calls": c(calls.get("bdd.relprod", 0)),
        "bdd.rename_s": s("bdd.rename"),
        "bdd.ite_calls": (ite_calls, "count", len(bdd)),
        "bdd.cache_hit_ratio": (ite_hits / ite_calls if ite_calls else 0.0, "ratio", len(bdd)),
        "bdd.peak_nodes": c(max((r.extras.get("peak_bdd_nodes", 0) for _, r in results),
                                default=0)),
        "symbolic.encode_s": s("symbolic.encode"),
        "symbolic.fixpoint_s": s("symbolic.reach"),
        "symbolic.iterations": c(total(("symbolic",), extra("iterations"))),
        "net.kernel_build_s": s("net.kernel_build"),
        "search.explore_s": c(search_self_s, "s"),
        "search.states": c(search_states),
        "search.expanded": c(total(EXPLICIT, extra("expanded"))),
        "search.states_per_s": c(search_states / search_s if search_s else 0.0, "1/s"),
        "stubborn.closure_iterations": c(
            total(("stubborn",), extra("stubborn_closure_iterations"))),
        "stubborn.set_s": s("stubborn.set"),
        "stubborn.ratio": c(mean(("stubborn",), "stubborn_ratio", extra("expanded")), "ratio"),
        "parallel.exchange_volume": c(total(("parallel",), extra("shard_exchange_volume"))),
        "parallel.exchange_stalls": c(total(("parallel",), extra("shard_exchange_stalls"))),
        "parallel.level_width": c(mean(("parallel",), "batch_level_width")),
        "unfolding.unfold_s": s("unfolding.unfold"),
        "unfolding.events": c(total(("unfolding",), lambda r: r.states)),
        "unfolding.witness_s": s("unfolding.witness"),
        "witness.extract_s": s("witness.extract"),
        "engine.unattributed_s": (sum(unattributed.values()), "s", len(jobs)),
        "engine.unattributed_frac": (
            sum(unattributed.values()) / job_total if job_total else 0.0, "ratio", len(jobs)),
        "obs.trace_overhead_frac": (
            traced["traced_seconds"] / traced["plain_seconds"] - 1.0, "ratio", 2 * len(jobs)),
    }
    for analyzer in ANALYZERS:
        count = analyzer_of.count(analyzer)
        out[f"engine.unattributed_s.{analyzer}"] = (unattributed[analyzer], "s", count)
    return out
