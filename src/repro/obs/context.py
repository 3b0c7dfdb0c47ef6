"""Trace-context propagation: one trace id per logical request.

A :class:`TraceContext` carries the correlation key of one end-to-end
request — a ``trace_id`` minted at the entry point (``POST /v1/jobs``,
``gpo query``, ``gpo profile``) plus the span id the *next* process
boundary should parent to.  The context is **process-global ambient**
state, deliberately not thread-local: the serve daemon runs a single
event loop, the CLI is single-threaded, and ``fork``-based workers (the
engine pool, the sharded parallel explorer) inherit it for free — which
is exactly the propagation path the merged trace needs.

Propagation rules (see DESIGN.md §13):

- the entry point mints ``TraceContext(new_trace_id())`` and installs it
  with :func:`use_context` around the request's whole lifetime;
- spans opened while a context is active are stamped with its
  ``trace_id`` (at *creation*, so a span that outlives the context keeps
  the id of the request that opened it);
- a span opened with an **empty** nesting stack parents itself to
  ``parent_span_id`` — this is how a forked worker's root span attaches
  to the span the coordinator opened for it on the other side of the
  process boundary;
- crossing an explicit boundary (a pipe to a shard worker), the sender
  ships ``ctx.child(current_span_id)`` and the receiver installs it.

The module is a leaf (imports nothing from ``repro``), so the tracer,
the engine and the serve layer can all depend on it without cycles.
"""

from __future__ import annotations

import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "TraceContext",
    "current_context",
    "new_trace_context",
    "new_trace_id",
    "set_context",
    "use_context",
]


def new_trace_id() -> str:
    """Mint a fresh 16-hex-char trace id (random, collision-negligible)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The correlation key of one logical request.

    ``trace_id`` joins spans, JSONL lifecycle events and the serve
    job record; ``parent_span_id`` is the span id a child process's
    root spans should parent to (``None`` at the entry point).
    """

    trace_id: str
    parent_span_id: str | None = None

    def child(self, parent_span_id: str | None) -> "TraceContext":
        """The context to ship across a process boundary: same trace,
        re-parented to the span covering the boundary on this side."""
        return TraceContext(self.trace_id, parent_span_id)


def new_trace_context() -> TraceContext:
    """A fresh root context (minted trace id, no parent span)."""
    return TraceContext(new_trace_id())


_current: TraceContext | None = None


def current_context() -> TraceContext | None:
    """The ambient trace context, or ``None`` outside any request."""
    return _current


def set_context(ctx: TraceContext | None) -> TraceContext | None:
    """Install ``ctx`` as the ambient context; returns the previous one.

    Forked workers call this once at startup with the context the
    coordinator shipped; request-scoped installation should prefer
    :func:`use_context`.
    """
    global _current
    previous = _current
    _current = ctx
    return previous


@contextmanager
def use_context(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Scoped installation: ambient within the block, restored after."""
    previous = set_context(ctx)
    try:
        yield ctx
    finally:
        set_context(previous)
