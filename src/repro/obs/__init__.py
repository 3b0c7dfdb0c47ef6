"""Unified observability layer: spans, metrics, memory, exporters.

Zero third-party dependencies.  The moving parts:

- :mod:`repro.obs.names` — canonical stat/metric/span names (a leaf
  module every other layer imports; never re-type the strings).
- :mod:`repro.obs.tracer` — span-based tracer with an ambient-tracer
  pattern; :data:`NULL_TRACER` (the default) makes everything a no-op.
- :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms.
- :mod:`repro.obs.memory` — peak-RSS and tracemalloc helpers.
- :mod:`repro.obs.exporters` — JSONL trace, Chrome ``trace_event``
  JSON, Prometheus text exposition.
- :mod:`repro.obs.summary` — terminal span-tree + hot-span digest.
- :mod:`repro.obs.record` — the one choke point mapping an
  ``AnalysisResult`` onto metric instruments.
- :mod:`repro.obs.context` — per-request :class:`TraceContext`
  (trace_id + cross-process parent span) propagation.
- :mod:`repro.obs.flight` — always-on bounded ring of recent
  diagnostics, dumped on crash/timeout/cancel.
- :mod:`repro.obs.benchmeta` — the host/commit provenance mapping
  ``perfbench/run.py`` records with every result.
- :mod:`repro.obs.slo` — Prometheus exposition parser + the
  ``gpo slo`` per-phase latency report.

Typical use (this is what ``gpo profile`` does)::

    from repro import obs

    tracer = obs.Tracer(memory=True)
    with obs.activate(tracer):
        result = analyze(net, options)
    print(obs.format_summary(tracer.records(), tracer.metrics))
"""

from repro.obs import names
from repro.obs.benchmeta import bench_metadata
from repro.obs.context import (
    TraceContext,
    current_context,
    new_trace_context,
    new_trace_id,
    set_context,
    use_context,
)
from repro.obs.exporters import (
    JsonlWriter,
    chrome_trace,
    prometheus_text,
    write_chrome_trace,
    write_jsonl_trace,
    write_prometheus,
)
from repro.obs.flight import (
    FLIGHT,
    FlightRecorder,
    flight_note,
    flight_snapshot,
)
from repro.obs.memory import peak_rss_kb, traced_memory_kb
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
)
from repro.obs.record import record_result
from repro.obs.slo import format_slo, parse_histograms
from repro.obs.summary import build_summary, format_summary, hot_spans
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    activate,
    current_tracer,
    event,
    set_tracer,
    span,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "FLIGHT",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlWriter",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "Span",
    "TraceContext",
    "Tracer",
    "activate",
    "bench_metadata",
    "build_summary",
    "chrome_trace",
    "current_context",
    "current_tracer",
    "event",
    "flight_note",
    "flight_snapshot",
    "format_slo",
    "format_summary",
    "hot_spans",
    "names",
    "new_trace_context",
    "new_trace_id",
    "parse_histograms",
    "peak_rss_kb",
    "prometheus_text",
    "record_result",
    "set_context",
    "set_tracer",
    "span",
    "traced_memory_kb",
    "use_context",
    "write_chrome_trace",
    "write_jsonl_trace",
    "write_prometheus",
]
