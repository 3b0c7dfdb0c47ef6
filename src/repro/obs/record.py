"""Bridge from analyzer results to the metrics registry.

The analyzer frame (:mod:`repro.analysis.frame`) calls
:func:`record_result` exactly once per atomic ``analyze`` run — that
single choke point is what guarantees the acceptance property that the
``states_expanded`` / ``peak_frontier`` metrics match the
:class:`~repro.analysis.stats.AnalysisResult` fields exactly, for all
seven analyzers, including the ones that never run the generic search
driver (symbolic, unfolding).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs import names
from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.tracer import current_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.stats import AnalysisResult

__all__ = ["record_result"]


def record_result(
    result: "AnalysisResult",
    metrics: "MetricsRegistry | NullMetrics | None" = None,
) -> None:
    """Publish one run's headline numbers to the metrics registry.

    ``states_expanded`` is ``extras["expanded"]`` where the generic
    driver ran and the analyzer's ``states`` field otherwise;
    ``peak_frontier`` defaults to 0 for frontier-free analyzers.  With
    tracing off this hits the null registry and costs a few dict
    lookups.
    """
    registry = metrics if metrics is not None else current_tracer().metrics
    labels = {"analyzer": result.analyzer, "net": result.net_name}
    registry.counter(names.STATES_EXPANDED, **labels).inc(
        float(result.expanded)
    )
    registry.counter(names.ANALYSIS_STATES, **labels).inc(result.states)
    registry.counter(names.ANALYSIS_EDGES, **labels).inc(result.edges)
    registry.gauge(names.ANALYSIS_SECONDS, **labels).set(result.time_seconds)
    registry.gauge(names.PEAK_FRONTIER, **labels).set_max(
        float(result.peak_frontier)
    )
    if result.deadlock:
        registry.counter(names.DEADLOCKS, **labels).inc()
