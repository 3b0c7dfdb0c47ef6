"""Span-based tracing with an ambient (process-global) tracer.

A :class:`Span` is one timed region — monotonic ``perf_counter_ns``
start/end, a name from :mod:`repro.obs.names`, free-form attributes and
a parent link.  Nesting is tracked per thread: ``tracer.span(...)`` used
as a context manager parents itself to the innermost open span of the
current thread, which is how an analyzer's ``analyze`` root span ends up
owning the search span, which owns the per-marking stubborn-set spans.

Span IDs embed the producing process id, so spans recorded inside
forked engine workers merge into the parent's trace without collisions
(:meth:`Tracer.adopt`); ``perf_counter_ns`` is CLOCK_MONOTONIC on Linux
and therefore comparable across those processes.

**Pay for what you use**: the default ambient tracer is
:data:`NULL_TRACER`, whose ``span``/``event`` are allocation-free no-ops
returning a shared null context manager, and whose ``metrics`` registry
hands out null instruments.  Instrumented code either calls
:func:`span` unconditionally (per-phase granularity) or guards per-state
work behind ``current_tracer().enabled``.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Union

from repro.obs.context import current_context
from repro.obs.flight import FLIGHT
from repro.obs.memory import peak_rss_kb, traced_memory_kb
from repro.obs.metrics import MetricsRegistry, NullMetrics, NULL_METRICS

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "activate",
    "current_tracer",
    "event",
    "set_tracer",
    "span",
]

#: JSONL trace-record schema version (bumped on breaking changes).
TRACE_SCHEMA_VERSION = 1

#: Attribute value types serialized as-is; anything else is ``str()``-ed.
_PLAIN = (str, int, float, bool, type(None))

_id_counter = itertools.count(1)


class Span:
    """One timed region of a trace.  Use via :meth:`Tracer.span`."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "pid",
        "tid",
        "start_ns",
        "end_ns",
        "attrs",
        "_tracer",
        "_stacked",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent_id: str | None,
        attrs: dict[str, Any],
        stacked: bool,
    ) -> None:
        self.name = name
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.span_id = f"{self.pid:x}-{next(_id_counter):x}"
        # Trace context is captured at *creation*: a span that outlives
        # the request scope that opened it (the serve job span ends when
        # the worker is reaped) keeps the id of the request it belongs
        # to.  A span with no in-process parent attaches to the context's
        # parent span — this is how a forked worker's root span joins the
        # span the coordinator opened for it.
        ctx = current_context()
        self.trace_id = ctx.trace_id if ctx is not None else None
        if parent_id is None and ctx is not None:
            parent_id = ctx.parent_span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.end_ns: int | None = None
        self._tracer = tracer
        self._stacked = stacked
        self.start_ns = time.perf_counter_ns()

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    @property
    def duration_ns(self) -> int:
        """Span duration (0 while still open)."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def end(self, **attrs: Any) -> None:
        """Close the span and hand it to the tracer.  Idempotent."""
        if self.end_ns is not None:
            return
        if attrs:
            self.attrs.update(attrs)
        self.end_ns = time.perf_counter_ns()
        self._tracer._finish(self)

    def close(self, **attrs: Any) -> None:
        """Pop the span off the nesting stack (if stacked) and end it.

        For stacked spans whose open and close live in different scopes
        (e.g. the search observer's span); ``with`` blocks do this
        automatically.
        """
        if self._stacked:
            self._tracer._pop(self)
        self.end(**attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def to_record(self) -> dict[str, Any]:
        """JSON-ready dict form (the unit of every exporter)."""
        record: dict[str, Any] = {
            "kind": "span",
            "v": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "span_id": self.span_id,
            "pid": self.pid,
            "tid": self.tid,
            "start_ns": self.start_ns,
            "dur_ns": self.duration_ns,
        }
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if self.attrs:
            record["attrs"] = {
                k: (v if isinstance(v, _PLAIN) else str(v))
                for k, v in self.attrs.items()
            }
        return record

    def __repr__(self) -> str:
        state = "open" if self.end_ns is None else f"{self.duration_ns}ns"
        return f"Span({self.name!r}, {self.span_id}, {state})"


class _NullSpan:
    """Shared no-op span: context manager, ``end`` and ``set`` all free."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def end(self, **attrs: Any) -> None:
        pass

    def close(self, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans and owns the run's metrics registry.

    ``memory=True`` turns on tracemalloc-based profiling: every finished
    span carries ``mem_kb`` / ``mem_peak_kb`` attributes (KiB of traced
    Python allocations at span end and the process-wide traced peak),
    and root spans additionally record ``rss_kb``.  A tracemalloc
    session the tracer starts is its own: :meth:`close` stops it, and a
    session already running is left alone.  ``max_spans`` bounds
    retained spans; overflow is counted in :attr:`dropped`, never
    raised.
    """

    enabled = True

    def __init__(
        self,
        *,
        metrics: MetricsRegistry | None = None,
        memory: bool = False,
        max_spans: int = 250_000,
    ) -> None:
        self.metrics: MetricsRegistry | NullMetrics = (
            metrics if metrics is not None else MetricsRegistry()
        )
        self.memory = memory
        self.max_spans = max_spans
        self.dropped = 0
        self._records: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._started_tracemalloc = False
        if memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True

    def close(self) -> None:
        """Stop the tracemalloc session this tracer started, if any."""
        if self._started_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._started_tracemalloc = False

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a nested span; use as a context manager.

        The span parents itself to the innermost open ``span()`` of the
        calling thread and is pushed as the new innermost.
        """
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        opened = Span(self, name, parent_id, attrs, stacked=True)
        stack.append(opened)
        return opened

    def start(self, name: str, **attrs: Any) -> Span:
        """Open a *free* span (not on the nesting stack).

        For regions whose start and end live in different scopes — e.g.
        an engine job's lifetime, opened at spawn and closed when the
        worker is reaped.  Close with :meth:`Span.end`.
        """
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        return Span(self, name, parent_id, attrs, stacked=False)

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instant (zero-duration) span."""
        instant = Span(self, name, None, attrs, stacked=False)
        stack = self._stack()
        if stack:
            instant.parent_id = stack[-1].span_id
        instant.end_ns = instant.start_ns
        self._finish(instant)

    @contextmanager
    def attach(self, free_span: Span) -> Iterator[Span]:
        """Temporarily make a free span the innermost open span.

        Spans opened inside the block parent to ``free_span`` without it
        being closed on exit — the engine wraps its ``fork`` in this so a
        worker's spans nest under the job span the parent opened for it.
        """
        stack = self._stack()
        stack.append(free_span)
        try:
            yield free_span
        finally:
            if stack and stack[-1] is free_span:
                stack.pop()

    def current_span_id(self) -> str | None:
        """Span id of the calling thread's innermost open span, if any.

        This is the parent to stamp into a :class:`TraceContext` shipped
        across an explicit process boundary (a shard-worker pipe).
        """
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def _pop(self, closing: Span) -> None:
        stack = self._stack()
        # Tolerate out-of-order exits (a generator finalized late): drop
        # everything above the closing span rather than corrupting the
        # nesting of future spans.
        while stack:
            top = stack.pop()
            if top is closing:
                return

    def _finish(self, finished: Span) -> None:
        if self.memory:
            current, peak = traced_memory_kb()
            finished.attrs.setdefault("mem_kb", current)
            finished.attrs.setdefault("mem_peak_kb", peak)
            if finished.parent_id is None:
                rss = peak_rss_kb()
                if rss is not None:
                    finished.attrs.setdefault("rss_kb", rss)
        record = finished.to_record()
        # Feed process-local roots (no parent, or a parent from another
        # process) to the always-on flight recorder: one append per
        # analysis-grade span, never per state.
        parent = finished.parent_id
        if parent is None or not parent.startswith(f"{finished.pid:x}-"):
            FLIGHT.record(record)
        with self._lock:
            if len(self._records) >= self.max_spans:
                self.dropped += 1
                return
            self._records.append(record)

    # ------------------------------------------------------------------
    # Record access / cross-process merging
    # ------------------------------------------------------------------
    def records(self) -> list[dict[str, Any]]:
        """Snapshot of the finished span records (emission order)."""
        with self._lock:
            return list(self._records)

    def drain(self) -> list[dict[str, Any]]:
        """Remove and return all finished records (worker → parent ship)."""
        with self._lock:
            records, self._records = self._records, []
            return records

    def adopt(self, records: list[dict[str, Any]]) -> None:
        """Merge records drained from another process's tracer."""
        with self._lock:
            room = self.max_spans - len(self._records)
            if room < len(records):
                self.dropped += len(records) - max(room, 0)
                records = records[: max(room, 0)]
            self._records.extend(records)

    def take(self, trace_id: str) -> list[dict[str, Any]]:
        """Remove and return the finished records of one trace.

        The serve daemon calls this when a request reaches a terminal
        state, moving the request's records onto its job record (evicted
        with normal store retention) so the long-lived daemon tracer
        never accumulates unbounded history.
        """
        with self._lock:
            taken = [r for r in self._records if r.get("trace_id") == trace_id]
            if taken:
                self._records = [
                    r for r in self._records if r.get("trace_id") != trace_id
                ]
            return taken

    def child_reset(self) -> None:
        """Called in a forked worker: drop records inherited from the
        parent so :meth:`drain` ships only spans this process produced
        (the parent still owns the originals)."""
        with self._lock:
            self._records = []
            self.dropped = 0


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    This is the default ambient tracer; its cost per ``span()`` call is
    one attribute lookup and returning a shared object, which is what
    keeps observability-off runs within the <3 % states/sec budget.
    """

    enabled = False
    metrics: NullMetrics = NULL_METRICS
    memory = False
    dropped = 0

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def start(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        pass

    @contextmanager
    def attach(self, free_span: Any) -> Iterator[Any]:
        yield free_span

    def records(self) -> list[dict[str, Any]]:
        return []

    def drain(self) -> list[dict[str, Any]]:
        return []

    def adopt(self, records: list[dict[str, Any]]) -> None:
        pass

    def current_span_id(self) -> str | None:
        return None

    def take(self, trace_id: str) -> list[dict[str, Any]]:
        return []

    def child_reset(self) -> None:
        pass


NULL_TRACER = NullTracer()

TracerLike = Union[Tracer, NullTracer]

_active: TracerLike = NULL_TRACER


def current_tracer() -> TracerLike:
    """The ambient tracer (:data:`NULL_TRACER` unless one is installed)."""
    return _active


def set_tracer(tracer: TracerLike) -> TracerLike:
    """Install ``tracer`` as the ambient tracer; returns the previous one."""
    global _active
    previous = _active
    _active = tracer
    return previous


@contextmanager
def activate(tracer: TracerLike) -> Iterator[TracerLike]:
    """Scoped installation: ambient within the block, restored after."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def span(name: str, **attrs: Any) -> Union[Span, _NullSpan]:
    """Open a span on the ambient tracer (no-op when tracing is off)."""
    return _active.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Record an instant event on the ambient tracer."""
    _active.event(name, **attrs)
