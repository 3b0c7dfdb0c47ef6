"""The analyzer frame every ``analyze()`` runs in.

One decorator (:mod:`repro.analysis.frame`) owns property intake,
admission, the root span and clock, budget absorption and result
recording for all seven analyzers; these tests hold each of those
decisions to one behaviour across the registry.
"""

import inspect

import pytest

from repro.analysis import analyze as full_analyze
from repro.engine.jobs import Budget, VerificationJob, execute_job
from repro.gpo import analyze as gpo_analyze
from repro.models import nsdp, over
from repro.obs import names
from repro.obs.tracer import Tracer, activate
from repro.props.ast import UnsupportedPropertyError
from repro.props.compat import unsupported_reason
from repro.props.eval import as_property
from repro.search.parallel import analyze_parallel
from repro.stubborn import analyze as stubborn_analyze
from repro.symbolic import analyze as symbolic_analyze
from repro.timed import analyze as timed_analyze
from repro.timed.tpn import TimedPetriNet
from repro.unfolding import analyze as unfolding_analyze

ANALYZE_FNS = {
    "full": full_analyze,
    "stubborn": stubborn_analyze,
    "gpo": gpo_analyze,
    "symbolic": symbolic_analyze,
    "timed": lambda net, **kw: timed_analyze(TimedPetriNet.untimed(net), **kw),
    "unfolding": unfolding_analyze,
    "parallel": lambda net, **kw: analyze_parallel(net, workers="inline", **kw),
}

QUERIES = ("deadlock", "reachable(eat0)", "invariant(!eat0)", "invariant(safe)")


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("analyzer", sorted(ANALYZE_FNS))
def test_admission_follows_the_preservation_matrix(analyzer, query):
    """A direct call refuses a query exactly when compat says it must."""
    reason = unsupported_reason(analyzer, as_property(query))
    if reason is None:
        result = ANALYZE_FNS[analyzer](nsdp(2), prop=query)
        assert result.analyzer == analyzer
    else:
        with pytest.raises(UnsupportedPropertyError):
            ANALYZE_FNS[analyzer](nsdp(2), prop=query)


def test_clean_gpo_screen_carries_no_abort_note():
    # The screen explores every GPN state within budget; a clean screen
    # is inconclusive by design, not a budget overrun.
    job = VerificationJob(
        nsdp(3), "gpo", Budget(), query="reachable(eat0 & eat1)"
    )
    result = execute_job(job)
    assert not result.exhaustive
    assert result.aborted is None
    assert result.property_holds is None


def test_unfolding_event_cap_is_noted():
    direct = unfolding_analyze(over(5), max_events=50)
    assert not direct.exhaustive
    assert direct.aborted == "> 50 states"
    job = VerificationJob(
        over(5), "unfolding", Budget(max_states=50, max_seconds=None)
    )
    assert execute_job(job).aborted == "> 50 states"


def test_compound_property_records_only_its_leaves():
    tracer = Tracer()
    with activate(tracer):
        result = full_analyze(nsdp(2), prop="reachable(eat0) & deadlock")
    leaves = result.extras["subproperties"]
    assert len(leaves) == 2
    roots = [r for r in tracer.records() if r["name"] == names.SPAN_ANALYZE]
    assert len(roots) == 2
    recorded = tracer.metrics.value_of(
        names.ANALYSIS_STATES, analyzer="full", net=result.net_name
    )
    assert recorded == sum(leaf["states"] for leaf in leaves) == result.states


@pytest.mark.parametrize("analyzer", sorted(ANALYZE_FNS))
def test_traced_run_mints_one_trace(analyzer):
    tracer = Tracer()
    with activate(tracer):
        ANALYZE_FNS[analyzer](nsdp(2))
    trace_ids = {r.get("trace_id") for r in tracer.records()}
    assert len(trace_ids) == 1 and None not in trace_ids


def test_public_signature_takes_prop_not_goal():
    params = inspect.signature(full_analyze).parameters
    assert list(params) == [
        "net",
        "max_states",
        "max_seconds",
        "prop",
    ]
    assert params["prop"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["prop"].default is None
