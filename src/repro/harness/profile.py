"""In-process profiling runs over the benchmark families (``gpo profile``).

Runs one analyzer on one Table 1 instance with the full observability
stack active — span tracing, the metrics registry, optionally
tracemalloc memory attribution — then prints the span-tree summary and
writes whichever export artifacts were requested (Chrome ``trace_event``
JSON for ``chrome://tracing`` / Perfetto, Prometheus text exposition,
raw JSONL trace records).

Unlike the engine-backed commands this deliberately runs **in-process**
(no worker fork): the point is a single coherent trace of one run, not
isolation.  The :func:`observed` context manager is the lighter variant
behind the ``--trace`` / ``--metrics`` flags of ``check`` / ``table1``
— it activates a tracer around an existing command and exports on the
way out.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator, TextIO

from repro.engine.jobs import ANALYZERS, Budget, VerificationJob, execute_job
from repro.harness.table1 import PROBLEMS
from repro.obs.exporters import (
    write_chrome_trace,
    write_jsonl_trace,
    write_prometheus,
)
from repro.obs.context import new_trace_context, use_context
from repro.obs.summary import format_summary
from repro.obs.tracer import Tracer, activate

__all__ = ["observed", "run_profile"]


def _export(
    tracer: Tracer,
    *,
    trace_out: str | None,
    metrics_out: str | None,
    jsonl_out: str | None,
    stream: TextIO,
) -> None:
    records = tracer.records()
    if trace_out:
        write_chrome_trace(trace_out, records)
        print(f"[profile] wrote Chrome trace: {trace_out}", file=stream)
    if metrics_out:
        write_prometheus(metrics_out, tracer.metrics)
        print(f"[profile] wrote metrics: {metrics_out}", file=stream)
    if jsonl_out:
        count = write_jsonl_trace(jsonl_out, records)
        print(
            f"[profile] wrote {count} JSONL trace records: {jsonl_out}",
            file=stream,
        )
    if tracer.dropped:
        print(
            f"[profile] warning: {tracer.dropped} span(s) dropped "
            f"(max_spans={tracer.max_spans})",
            file=stream,
        )


@contextmanager
def observed(
    *,
    trace_out: str | None = None,
    metrics_out: str | None = None,
    jsonl_out: str | None = None,
    memory: bool = False,
    summary: bool = False,
    stream: TextIO | None = None,
) -> Iterator[Tracer | None]:
    """Activate a tracer around a block and export artifacts on exit.

    Yields the tracer, or ``None`` (and stays a no-op) when nothing was
    requested — so command code can wrap itself unconditionally.
    """
    if not (trace_out or metrics_out or jsonl_out or summary):
        yield None
        return
    out = stream if stream is not None else sys.stdout
    tracer = Tracer(memory=memory)
    # One observed command is one logical request: its exported trace and
    # JSONL events carry one freshly minted trace_id.
    try:
        with activate(tracer), use_context(new_trace_context()):
            yield tracer
    finally:
        tracer.close()
    if summary:
        print(format_summary(tracer.records(), tracer.metrics), file=out)
    _export(
        tracer,
        trace_out=trace_out,
        metrics_out=metrics_out,
        jsonl_out=jsonl_out,
        stream=out,
    )


def run_profile(
    family: str,
    size: int,
    *,
    analyzer: str = "gpo",
    max_states: int | None = 200_000,
    max_seconds: float | None = 120.0,
    memory: bool = False,
    trace_out: str | None = None,
    metrics_out: str | None = None,
    jsonl_out: str | None = None,
    stream: TextIO | None = None,
) -> int:
    """Profile one analyzer on one family instance; returns an exit code.

    ``family`` is case-insensitive (``nsdp`` / ``NSDP``).  Exit status
    is 1 when a deadlock was found, else 0.  The ``timed`` analyzer runs
    on the family's untimed skeleton (every interval ``[0, inf)``).
    """
    out = stream if stream is not None else sys.stdout
    key = family.upper()
    if key not in PROBLEMS:
        print(
            f"unknown family {family!r}; choose from "
            f"{', '.join(sorted(PROBLEMS))}",
            file=sys.stderr,
        )
        return 2
    if analyzer not in ANALYZERS:
        print(
            f"unknown analyzer {analyzer!r}; choose from "
            f"{', '.join(sorted(ANALYZERS))}",
            file=sys.stderr,
        )
        return 2
    job = VerificationJob(
        net=PROBLEMS[key](size),
        method=analyzer,
        budget=Budget(max_states=max_states, max_seconds=max_seconds),
    )
    with observed(
        trace_out=trace_out,
        metrics_out=metrics_out,
        jsonl_out=jsonl_out,
        memory=memory,
        summary=True,
        stream=out,
    ):
        result = execute_job(job)
        print(result.describe(), file=out)
        print(file=out)
    return 1 if result.deadlock else 0
