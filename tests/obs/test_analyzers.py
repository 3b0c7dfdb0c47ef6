"""Cross-analyzer observability contract.

Every analyzer — full, stubborn, gpo, symbolic, timed, unfolding,
parallel — must,
when a tracer is active:

* emit exactly one root ``analyze`` span carrying the canonical
  ``analyzer`` / ``net`` attributes;
* publish a ``states_expanded`` counter and ``peak_frontier`` gauge whose
  values match the returned :class:`AnalysisResult` exactly.
"""

import pytest

from repro.analysis import analyze as full_analyze
from repro.gpo import analyze as gpo_analyze
from repro.models import nsdp, rw
from repro.obs import names
from repro.obs.record import record_result
from repro.obs.summary import build_summary
from repro.obs.tracer import Tracer, activate
from repro.search.parallel import analyze_parallel
from repro.stubborn import analyze as stubborn_analyze
from repro.symbolic import analyze as symbolic_analyze
from repro.timed.tpn import TimedPetriNet
from repro.unfolding import analyze as unfolding_analyze


def timed_analyze_skeleton(net, **kwargs):
    from repro.timed import analyze as timed_analyze

    tpn = TimedPetriNet(net, [(0, None)] * net.num_transitions)
    return timed_analyze(tpn)


ANALYZE_FNS = {
    "full": full_analyze,
    "stubborn": stubborn_analyze,
    "gpo": gpo_analyze,
    "symbolic": symbolic_analyze,
    "timed": timed_analyze_skeleton,
    "unfolding": unfolding_analyze,
    "parallel": lambda net: analyze_parallel(net, workers="inline"),
}


@pytest.mark.parametrize("analyzer", sorted(ANALYZE_FNS))
@pytest.mark.parametrize("family,size", [("nsdp", 2), ("rw", 3)])
def test_canonical_root_span_and_metrics(analyzer, family, size):
    net = {"nsdp": nsdp, "rw": rw}[family](size)
    tracer = Tracer()
    with activate(tracer):
        result = ANALYZE_FNS[analyzer](net)

    roots = [
        r
        for r in tracer.records()
        if r["name"] == names.SPAN_ANALYZE and "parent_id" not in r
    ]
    assert len(roots) == 1
    root = roots[0]
    assert root["attrs"]["analyzer"] == result.analyzer
    assert root["attrs"]["net"] == net.name
    assert root["dur_ns"] > 0

    labels = {"analyzer": result.analyzer, "net": result.net_name}
    metrics = tracer.metrics
    assert (
        metrics.value_of(names.STATES_EXPANDED, **labels) == result.expanded
    )
    assert (
        metrics.value_of(names.PEAK_FRONTIER, **labels)
        == result.peak_frontier
    )
    assert metrics.value_of(names.ANALYSIS_STATES, **labels) == result.states


@pytest.mark.parametrize("analyzer", sorted(ANALYZE_FNS))
def test_summary_root_identity(analyzer):
    """Root wall time equals the sum of direct children plus self time."""
    net = nsdp(2)
    tracer = Tracer()
    with activate(tracer):
        ANALYZE_FNS[analyzer](net)
    root = build_summary(tracer.records())[0]
    children = sum(c.total_ns for c in root.children.values())
    assert root.total_ns == children + root.self_ns


def test_disabled_tracer_records_nothing():
    net = nsdp(2)
    result = gpo_analyze(net)  # ambient tracer is NULL_TRACER
    assert result is not None
    from repro.obs.tracer import current_tracer

    assert current_tracer().records() == []


def test_deadlock_metric_counts_verdicts():
    tracer = Tracer()
    with activate(tracer):
        result = full_analyze(nsdp(2))
    labels = {"analyzer": "full", "net": result.net_name}
    recorded = tracer.metrics.value_of(names.DEADLOCKS, **labels)
    if result.deadlock:
        assert recorded == 1
    else:
        assert recorded is None


def test_record_result_is_explicit_choke_point():
    """record_result against an explicit registry, independent of tracing."""
    from repro.analysis.stats import AnalysisResult
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    result = AnalysisResult(
        analyzer="full",
        net_name="toy",
        states=10,
        edges=9,
        deadlock=True,
        time_seconds=0.5,
        extras={names.EXPANDED: 8, names.PEAK_FRONTIER: 4},
    )
    record_result(result, registry)
    labels = {"analyzer": "full", "net": "toy"}
    assert registry.value_of(names.STATES_EXPANDED, **labels) == 8
    assert registry.value_of(names.PEAK_FRONTIER, **labels) == 4
    assert registry.value_of(names.ANALYSIS_STATES, **labels) == 10
    assert registry.value_of(names.ANALYSIS_EDGES, **labels) == 9
    assert registry.value_of(names.DEADLOCKS, **labels) == 1


def test_stubborn_set_size_histogram_populated():
    tracer = Tracer()
    with activate(tracer):
        stubborn_analyze(nsdp(2))
    histograms = [
        i
        for i in tracer.metrics.collect()
        if i.name == names.STUBBORN_SET_SIZE
    ]
    assert histograms and histograms[0].count > 0


def test_scenario_set_size_histogram_populated():
    tracer = Tracer()
    with activate(tracer):
        gpo_analyze(nsdp(2))
    histograms = [
        i
        for i in tracer.metrics.collect()
        if i.name == names.SCENARIO_SET_SIZE
    ]
    assert histograms and histograms[0].count > 0


def test_symbolic_bdd_gauges_populated():
    tracer = Tracer()
    with activate(tracer):
        result = symbolic_analyze(nsdp(2))
    labels = {"analyzer": "symbolic", "net": result.net_name}
    peak = tracer.metrics.value_of(names.BDD_PEAK_NODES, **labels)
    ratio = tracer.metrics.value_of(names.BDD_CACHE_HIT_RATIO, **labels)
    assert peak == result.extras["peak_bdd_nodes"]
    assert ratio is not None and 0.0 <= ratio <= 1.0
