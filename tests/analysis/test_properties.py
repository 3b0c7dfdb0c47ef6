"""Behavioural property checks (safeness, liveness, invariants) through
:mod:`repro.props` (``repro.query``) and :func:`dead_transitions`."""

from repro import query
from repro.analysis import dead_transitions
from repro.engine.jobs import Budget
from repro.models import choice_net, figure3_net, nsdp, rw
from repro.net import NetBuilder


class TestSafeness:
    def test_safe_net(self):
        decision = query(nsdp(2), "safe")
        assert decision.holds is True

    def test_unsafe_net_with_trace(self):
        builder = NetBuilder()
        builder.place("p", marked=True)
        builder.place("q")
        builder.place("r", marked=True)
        builder.transition("t", inputs=["p"], outputs=["q"])
        builder.transition("u", inputs=["q"], outputs=["r"])
        decision = query(builder.build(), "safe")
        assert decision.holds is False
        witness = decision.result.witness
        assert witness is not None
        assert witness.trace == ("t", "u")
        assert witness.marking == frozenset({"q", "r"})

    def test_bounded(self):
        decision = query(
            nsdp(4), "safe", budget=Budget(max_states=10), use_static=False
        )
        assert decision.holds is None
        assert decision.result.extras["aborted"] == "> 10 states"


class TestLiveness:
    def test_dead_transition_found(self):
        # Figure 3: D can never fire.
        dead = dead_transitions(figure3_net())
        assert dead == ["D"]

    def test_quasi_live_net(self):
        assert dead_transitions(rw(2)) == []

    def test_quasi_live_report_lists_dead(self):
        assert "D" in dead_transitions(figure3_net(), max_states=1000)


class TestInvariants:
    def test_holding_invariant(self, loop_net):
        decision = query(loop_net, "invariant((p0 | p1) & !(p0 & p1))")
        assert decision.holds is True

    def test_violated_invariant_with_trace(self):
        decision = query(choice_net(), "invariant(!p2)", methods=["full"])
        assert decision.holds is False
        assert decision.result.witness is not None
        assert decision.result.witness.trace == ("b",)

    def test_find_violation(self):
        decision = query(choice_net(), "reachable(p1)", methods=["full"])
        assert decision.holds is True
        assert decision.result.witness.trace == ("a",)

    def test_find_violation_none(self, loop_net):
        decision = query(
            loop_net, "reachable(p0 & p1)", methods=["full"], use_static=False
        )
        assert decision.holds is False
        assert decision.result.witness is None


class TestMutualExclusion:
    def test_rw_writers_exclusive(self):
        decision = query(
            rw(3),
            "invariant(!((writing0 & writing1) | (writing0 & writing2)"
            " | (writing1 & writing2)))",
        )
        assert decision.holds is True

    def test_violation_detected(self):
        # Two independent tokens can mark both "critical" places.
        builder = NetBuilder()
        builder.place("a", marked=True)
        builder.place("b", marked=True)
        builder.place("csa")
        builder.place("csb")
        builder.transition("ta", inputs=["a"], outputs=["csa"])
        builder.transition("tb", inputs=["b"], outputs=["csb"])
        decision = query(builder.build(), "invariant(!(csa & csb))")
        assert decision.holds is False
        assert decision.result.witness is not None
