"""Parallel portfolio verification engine.

The execution layer between the analyzers and the experiment harness:

* :mod:`repro.engine.jobs` — :class:`VerificationJob` / :class:`JobResult`
  specs and budgeted in-process execution (:func:`execute_job`);
* :mod:`repro.engine.pool` — a ``multiprocessing`` worker pool running
  each analyzer in its own process with hard wall-clock preemption; its
  :meth:`~repro.engine.pool.WorkerPool.run` is the engine's one batch
  scheduler;
* :mod:`repro.engine.portfolio` — race several analyzers on one net and
  keep the first conclusive verdict (SMPT-style portfolio solving), as a
  pool run that stops at the first conclusive outcome;
* :mod:`repro.engine.cache` — an on-disk result cache keyed by canonical
  structural hashes, making repeated experiment runs incremental;
* :mod:`repro.engine.events` — JSONL lifecycle events (queued / started /
  finished / killed / cancelled / crashed / cache_hit) for observability.
"""

from repro.engine.cache import ResultCache, default_cache_root
from repro.engine.events import (
    EventSink,
    JobEvent,
    JsonlEventSink,
    MemoryEventSink,
    NullEventSink,
    read_events,
)
from repro.engine.jobs import (
    ANALYZERS,
    Budget,
    JobResult,
    VerificationJob,
    execute_job,
    is_conclusive,
)
from repro.engine.pool import WorkerPool
from repro.engine.portfolio import DEFAULT_PORTFOLIO, RaceOutcome, run_race

__all__ = [
    "ANALYZERS",
    "Budget",
    "DEFAULT_PORTFOLIO",
    "EventSink",
    "JobEvent",
    "JobResult",
    "JsonlEventSink",
    "MemoryEventSink",
    "NullEventSink",
    "RaceOutcome",
    "ResultCache",
    "VerificationJob",
    "WorkerPool",
    "default_cache_root",
    "execute_job",
    "is_conclusive",
    "read_events",
    "run_race",
]
