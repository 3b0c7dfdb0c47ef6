"""Process-isolated execution of verification jobs with hard preemption.

Every job runs :func:`repro.engine.jobs.execute_job` in its **own**
``multiprocessing`` process.  The cooperative deadlines threaded through
the exploration loops normally fire first; the pool is the backstop for
analyzers stuck in a non-cooperating region (or a pathological input): a
worker still alive ``kill_grace`` seconds past its ``max_seconds`` budget
is terminated and reported as a non-exhaustive result with
``extras["aborted"]`` — never an exception, never a hung harness.

Worker crashes (``UnsafeNetError``, MemoryError, even ``os._exit``) are
likewise absorbed into ``status="error"`` results, so one bad instance
cannot take down a whole Table 1 run.

The pool also integrates the result cache (:mod:`repro.engine.cache`) and
emits lifecycle events (:mod:`repro.engine.events`) for every job.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import Connection
from typing import Callable, Sequence

from repro.analysis.stats import AnalysisResult
from repro.engine.cache import ResultCache
from repro.engine.events import EventSink, NullEventSink
from repro.engine.jobs import (
    JobResult,
    VerificationJob,
    execute_job,
    instrumentation_of,
)
from repro.obs import names
from repro.obs.flight import FLIGHT
from repro.obs.memory import peak_rss_kb
from repro.obs.tracer import current_tracer

__all__ = ["WorkerPool"]

#: Seconds past the cooperative deadline before the hard kill (the
#: acceptance bar is "killed within ~1s of its deadline").
DEFAULT_KILL_GRACE = 0.5

#: Scheduler poll interval in seconds.
DEFAULT_POLL_INTERVAL = 0.02

#: Most recent flight-recorder records attached to an aborted result.
_FLIGHT_DUMP_LIMIT = 64


def _flight_dump(worker_records: list[dict] | None = None) -> list[dict]:
    """Recent diagnostics for a dead worker's ``extras["flight"]``.

    The worker's own ring (when it died politely enough to ship it)
    topped up with the parent's recent records, newest last, capped so a
    crash report stays a report and not a log.
    """
    records = list(worker_records or [])
    if len(records) < _FLIGHT_DUMP_LIMIT:
        parent = FLIGHT.snapshot(_FLIGHT_DUMP_LIMIT - len(records))
        records = parent + records
    return records[-_FLIGHT_DUMP_LIMIT:]


def _worker_main(conn: Connection, job: VerificationJob) -> None:
    """Worker-process entry: run the job, ship the result (or the error).

    When tracing is on, the forked worker inherits the ambient tracer;
    its spans are drained and shipped alongside the result, so the
    parent can merge them into the one trace (span ids embed the pid,
    so there are no collisions).
    """
    tracer = current_tracer()
    tracer.child_reset()
    try:
        result = execute_job(job)
        conn.send(("ok", result, peak_rss_kb(), tracer.drain()))
    except BaseException as exc:  # noqa: BLE001 - report, don't crash silent
        try:
            # Ship the worker's flight-recorder ring alongside the error:
            # the moments *before* the failure are the diagnosis.
            conn.send(
                ("error", type(exc).__name__, str(exc), FLIGHT.snapshot())
            )
        except Exception:  # pragma: no cover - result not picklable
            pass
    finally:
        conn.close()


def _mp_context():
    """Prefer ``fork`` (cheap, inherits registered analyzers) when available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _aborted_result(
    job: VerificationJob, wall: float, note: str, **extras: object
) -> AnalysisResult:
    """Synthesized non-exhaustive result for killed/crashed workers."""
    return AnalysisResult(
        analyzer=job.method,
        net_name=job.net.name,
        states=0,
        edges=0,
        deadlock=False,
        time_seconds=wall,
        exhaustive=False,
        extras={"aborted": note, **extras},
    )


class WorkerHandle:
    """One live worker process and the bookkeeping to preempt it."""

    def __init__(self, job: VerificationJob, context) -> None:
        self.job = job
        self._tracer = current_tracer()
        # Free (unstacked) span covering the job's whole process lifetime;
        # opened before the fork so the worker's own spans are recorded
        # with ids that cannot collide with it, closed by whichever of the
        # four terminal paths reaps the worker.
        self.span = self._tracer.start(
            names.SPAN_JOB,
            job=job.label,
            method=job.method,
            net=job.net.name,
        )
        recv, send = context.Pipe(duplex=False)
        self._recv = recv
        self.process = context.Process(
            target=_worker_main, args=(send, job), daemon=True
        )
        # Fork with the job span attached as the innermost open span, so
        # the worker's analyze span parents to it in the merged trace.
        with self._tracer.attach(self.span):
            self.process.start()
        # The parent's copy of the send end must be closed so EOF is
        # observable if the worker dies without sending.
        send.close()
        self.started = time.perf_counter()

    @property
    def wall(self) -> float:
        return time.perf_counter() - self.started

    @property
    def deadline_exceeded(self) -> bool:
        """Past the hard-preemption point (budget + grace)?"""
        max_seconds = self.job.budget.max_seconds
        if max_seconds is None:
            return False
        return self.wall > max_seconds + DEFAULT_KILL_GRACE

    def poll(self) -> JobResult | None:
        """Non-blocking check: a finished/crashed/overdue worker yields a
        :class:`JobResult`, a still-running one yields ``None``."""
        if self._recv.poll(0):
            try:
                message = self._recv.recv()
            except EOFError:
                return self._reap_crash()
            return self._finish(message)
        if not self.process.is_alive():
            return self._reap_crash()
        if self.deadline_exceeded:
            return self.kill(status="killed")
        return None

    def _finish(self, message: tuple) -> JobResult:
        wall = self.wall
        pid = self.process.pid
        self.process.join()
        self._recv.close()
        if message[0] == "ok":
            _, result, rss, *rest = message
            if rest:
                # Spans the worker drained before exiting — merge them
                # into the parent's trace.
                self._tracer.adopt(rest[0])
            self.span.end(status="ok", pid=pid, peak_rss_kb=rss)
            return JobResult(
                job=self.job,
                result=result,
                status="ok",
                wall_seconds=wall,
                peak_rss_kb=rss,
                worker_pid=pid,
            )
        _, error_type, error_msg, *rest = message
        error = f"{error_type}: {error_msg}"
        self.span.end(status="error", pid=pid, error=error)
        FLIGHT.note(
            "worker_error", job=self.job.label, pid=pid, error=error
        )
        return JobResult(
            job=self.job,
            result=_aborted_result(
                self.job,
                wall,
                "worker error",
                error=error,
                flight=_flight_dump(rest[0] if rest else None),
            ),
            status="error",
            wall_seconds=wall,
            worker_pid=pid,
            error=error,
        )

    def _reap_crash(self) -> JobResult:
        wall = self.wall
        pid = self.process.pid
        self.process.join()
        self._recv.close()
        error = f"worker died (exit code {self.process.exitcode})"
        self.span.end(status="crashed", pid=pid, error=error)
        FLIGHT.note(
            "worker_crash", job=self.job.label, pid=pid, error=error
        )
        return JobResult(
            job=self.job,
            result=_aborted_result(
                self.job, wall, "worker crash", error=error,
                flight=_flight_dump(),
            ),
            status="error",
            wall_seconds=wall,
            worker_pid=pid,
            error=error,
        )

    def kill(self, *, status: str = "killed") -> JobResult:
        """Terminate the worker now (SIGTERM, then SIGKILL) and report it."""
        wall = self.wall
        pid = self.process.pid
        self.process.terminate()
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - SIGTERM ignored
            self.process.kill()
            self.process.join()
        self._recv.close()
        max_seconds = self.job.budget.max_seconds
        note = (
            f"> {max_seconds:g}s (hard preemption)"
            if status == "killed" and max_seconds is not None
            else "race lost"
            if status == "cancelled"
            else "terminated"
        )
        self.span.end(status=status, pid=pid, detail=note)
        FLIGHT.note(
            "worker_" + status, job=self.job.label, pid=pid, detail=note
        )
        return JobResult(
            job=self.job,
            result=_aborted_result(
                self.job, wall, note,
                flight=_flight_dump(),
                **{status: True},
            ),
            status=status,
            wall_seconds=wall,
            worker_pid=pid,
        )


class WorkerPool:
    """Run verification jobs in isolated processes, at most ``max_workers``
    at a time, with caching and lifecycle events.

    ``max_workers=1`` still isolates each job in a process (so hard
    preemption works) but runs them strictly in submission order.
    """

    def __init__(
        self,
        max_workers: int = 1,
        *,
        cache: ResultCache | None = None,
        events: EventSink | None = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
    ) -> None:
        self.max_workers = max(1, max_workers)
        self.cache = cache
        self.events = events if events is not None else NullEventSink()
        self.poll_interval = poll_interval
        self._context = _mp_context()

    # ------------------------------------------------------------------
    # Re-entrant single-job API: long-lived callers (the ``repro.serve``
    # daemon) interleave submissions, polls and cancellations of many
    # jobs against one warm pool instead of batching through :meth:`run`.
    # Every method takes an optional per-call ``events`` sink so each
    # job's lifecycle can be routed to its own buffer (the pool-wide
    # sink remains the default).
    # ------------------------------------------------------------------
    def try_cache(
        self, job: VerificationJob, *, events: EventSink | None = None
    ) -> JobResult | None:
        """Serve ``job`` from the result cache, or ``None`` on a miss."""
        if self.cache is None:
            return None
        result = self.cache.get(job)
        if result is None:
            return None
        (events or self.events).record(
            "cache_hit", job, detail=self.cache.key(job)[:16]
        )
        return JobResult(
            job=job, result=result, status="cached", wall_seconds=0.0
        )

    def submit(
        self, job: VerificationJob, *, events: EventSink | None = None
    ) -> WorkerHandle:
        """Start ``job`` in its own worker process without blocking.

        The caller owns the returned handle: poll it until it yields a
        :class:`JobResult`, then pass that through :meth:`finalize`.
        Capacity is the caller's concern — the pool does not queue here.
        """
        handle = WorkerHandle(job, self._context)
        (events or self.events).record("started", job, pid=handle.process.pid)
        return handle

    def cancel(
        self, handle: WorkerHandle, *, events: EventSink | None = None
    ) -> JobResult:
        """Hard-preempt a running handle and record the cancellation."""
        return self.finalize(handle.kill(status="cancelled"), events=events)

    def finalize(
        self, outcome: JobResult, *, events: EventSink | None = None
    ) -> JobResult:
        """Store a completed result in the cache and emit its terminal event."""
        return self._finalize(outcome, events=events)

    # ------------------------------------------------------------------
    def run_one(self, job: VerificationJob) -> JobResult:
        """Run a single job (convenience wrapper around :meth:`run`)."""
        return self.run([job])[0]

    def run(
        self,
        jobs: Sequence[VerificationJob],
        *,
        until: Callable[[JobResult], bool] | None = None,
    ) -> list[JobResult]:
        """Run all jobs; the result list is parallel to the input order.

        With ``until``, the first outcome it accepts (a finished job or a
        cache hit) stops the run: pending jobs never start and running
        ones are cancelled (``race lost``).  The list then holds only the
        jobs that started or hit the cache, still in input order.
        """
        results: list[JobResult | None] = [None] * len(jobs)
        pending: list[int] = list(range(len(jobs)))
        running: dict[int, WorkerHandle] = {}
        for job in jobs:
            self.events.record("queued", job)

        def settle(index: int, outcome: JobResult) -> None:
            results[index] = outcome
            if until is not None and until(outcome):
                pending.clear()
                for other, handle in running.items():
                    results[other] = self.cancel(handle)
                running.clear()

        try:
            while pending or running:
                while pending and len(running) < self.max_workers:
                    index = pending.pop(0)
                    cached = self.try_cache(jobs[index])
                    if cached is None:
                        running[index] = self.submit(jobs[index])
                    else:
                        settle(index, cached)
                progressed = False
                for index, handle in list(running.items()):
                    if index not in running:  # cancelled by a stop above
                        continue
                    outcome = handle.poll()
                    if outcome is None:
                        continue
                    del running[index]
                    settle(index, self._finalize(outcome))
                    progressed = True
                if not progressed and running:
                    time.sleep(self.poll_interval)
        finally:
            # Only reached with live workers when an exception is unwinding
            # (e.g. KeyboardInterrupt): never leave orphan processes behind.
            for handle in running.values():
                handle.kill(status="cancelled")
        return [outcome for outcome in results if outcome is not None]

    # ------------------------------------------------------------------
    def _finalize(
        self, outcome: JobResult, *, events: EventSink | None = None
    ) -> JobResult:
        job = outcome.job
        sink = events or self.events
        if outcome.status == "ok":
            if self.cache is not None:
                self.cache.put(job, outcome.result)
            sink.record(
                "finished",
                job,
                wall_seconds=outcome.wall_seconds,
                peak_rss_kb=outcome.peak_rss_kb,
                pid=outcome.worker_pid,
                detail=outcome.result.verdict,
                stats=instrumentation_of(outcome.result) or None,
            )
        elif outcome.status == "error":
            sink.record(
                "crashed",
                job,
                wall_seconds=outcome.wall_seconds,
                pid=outcome.worker_pid,
                detail=outcome.error,
            )
        else:  # killed / cancelled
            sink.record(
                outcome.status,
                job,
                wall_seconds=outcome.wall_seconds,
                pid=outcome.worker_pid,
                detail=outcome.result.extras.get("aborted"),
            )
        return outcome

