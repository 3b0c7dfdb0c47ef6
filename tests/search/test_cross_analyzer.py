"""Cross-analyzer agreement on the unified search core.

Full, stubborn and GPO analysis answer the same deadlock question through
the same driver; over random safe nets they must agree on the verdict
(GPO on its BDD families and on the frozenset family oracle),
report uniform partial-result semantics, and carry the instrumentation
counters the core promises.
"""

from hypothesis import HealthCheck, given, settings

from repro.analysis.reachability import analyze as full_analyze
from repro.gpo.analysis import GpoOptions
from repro.gpo.analysis import analyze as gpo_analyze
from repro.models import nsdp
from repro.stubborn.explorer import analyze as stubborn_analyze
from repro.timed.reach import analyze as timed_analyze
from repro.timed.tpn import TimedPetriNet

from ..conftest import state_machine_nets
from ..oracle import oracle_explore_gpo

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_BUDGET = {"max_states": 3000, "max_seconds": 20.0}


class TestDeadlockVerdictAgreement:
    @_SETTINGS
    @given(net=state_machine_nets())
    def test_full_stubborn_gpo_agree(self, net):
        full = full_analyze(net, **_BUDGET)
        stubborn = stubborn_analyze(net, **_BUDGET)
        gpo = gpo_analyze(net, **_BUDGET)
        if not (full.exhaustive and stubborn.exhaustive and gpo.exhaustive):
            return  # bounded runs decide nothing
        oracle = oracle_explore_gpo(net, GpoOptions(**_BUDGET))
        assert full.deadlock == stubborn.deadlock == gpo.deadlock
        assert oracle.has_deadlock == gpo.deadlock
        assert oracle.graph.num_states == gpo.states

    @_SETTINGS
    @given(net=state_machine_nets())
    def test_stubborn_never_explores_more_than_full(self, net):
        full = full_analyze(net, **_BUDGET)
        stubborn = stubborn_analyze(net, **_BUDGET)
        if full.exhaustive and stubborn.exhaustive:
            assert stubborn.states <= full.states


class TestUniformSemantics:
    def test_all_analyzers_absorb_state_overruns(self):
        # Budgets strictly below each analyzer's exhaustive size (GPO needs
        # only 2 states for NSDP regardless of the instance size).
        net = nsdp(4)
        for analyze, budget in (
            (full_analyze, 2),
            (stubborn_analyze, 2),
            (gpo_analyze, 1),
        ):
            result = analyze(net, max_states=budget)
            assert not result.exhaustive
            assert result.states == budget  # stops exactly at the budget
            assert result.extras["aborted"] == f"> {budget} states"
        timed = timed_analyze(TimedPetriNet.untimed(net), max_classes=2)
        assert not timed.exhaustive
        assert timed.states == 2
        assert timed.extras["aborted"] == "> 2 states"

    def test_all_analyzers_absorb_time_overruns(self):
        net = nsdp(4)
        for analyze in (full_analyze, stubborn_analyze, gpo_analyze):
            result = analyze(net, max_seconds=0.0)
            assert not result.exhaustive
            assert result.extras["aborted"] == "> 0s"
        timed = timed_analyze(TimedPetriNet.untimed(net), max_seconds=0.0)
        assert not timed.exhaustive
        assert timed.extras["aborted"] == "> 0s"

    def test_instrumentation_present_everywhere(self):
        net = nsdp(2)
        uniform = ("expanded", "peak_frontier", "mean_enabled",
                   "states_per_second")
        results = {
            "full": full_analyze(net),
            "stubborn": stubborn_analyze(net),
            "gpo": gpo_analyze(net),
            "timed": timed_analyze(TimedPetriNet.untimed(net)),
        }
        for name, result in results.items():
            for key in uniform:
                assert key in result.extras, (name, key)
        assert 0.0 < results["stubborn"].extras["stubborn_ratio"] <= 1.0
        assert results["gpo"].extras["mean_scenarios"] >= 1.0
        assert results["gpo"].extras["max_scenarios"] >= 1

    def test_bounded_verdict_string(self):
        result = full_analyze(nsdp(4), max_states=5)
        assert result.verdict == "no deadlock found (bounded)"
