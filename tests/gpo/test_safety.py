"""Safety properties (§4): the GPO screen, the planner, and the monitor.

A bad-marking question is an ``invariant(!(...))`` property.  GPO's
``analyze(prop=...)`` screens the explored GPN states (a hit is a real
violation, a clean screen proves nothing); ``repro.query`` decides it
(structural layer, then the portfolio); :func:`repro.net.monitor_net`
is the paper's "safety reduces to deadlock" instrumentation.
"""

import pytest

from repro import query
from repro.analysis import dead_transitions, explore
from repro.gpo import analyze as gpo_analyze
from repro.models import asat, choice_net, conflict_pairs_net, nsdp, rw
from repro.net import monitor_net
from repro.net.exceptions import UnknownNodeError
from tests.oracle import discovery_tree


class TestScreen:
    def test_violation_found_with_real_witness(self):
        net = rw(3)
        result = gpo_analyze(net, prop="invariant(!(reading0 & reading1))")
        assert result.property_holds is False
        assert result.extras["screen"] == "hit"
        # The witness marking must be classically reachable.
        reachable = set(explore(net).states())
        assert net.marking_from_names(result.witness.marking) in reachable

    def test_clean_screen_returns_none(self):
        result = gpo_analyze(rw(2), prop="invariant(!(writing0 & writing1))")
        assert result.property_holds is None
        assert result.extras["screen"] == "clean"
        assert result.witness is None

    def test_screen_incompleteness_pinned(self):
        # The reduction skips the intermediate marking {a_out0, c1}: the
        # screen must stay silent even though the marking is reachable,
        # and the planner must still decide the question.
        net = conflict_pairs_net(2)
        text = "invariant(!(a_out0 & c1))"
        screened = gpo_analyze(net, prop=text)
        assert screened.property_holds is None
        assert screened.extras["screen"] == "clean"
        assert query(net, text).holds is False


class TestCheckSafety:
    def test_certified_safe(self):
        decision = query(
            rw(3),
            "invariant(!((writing0 & writing1) | (writing0 & writing2)"
            " | (writing1 & writing2)))",
        )
        assert decision.holds is True
        assert decision.result.exhaustive

    def test_screen_fast_path(self):
        decision = query(rw(3), "invariant(!(reading0 & reading2))")
        assert decision.holds is False
        assert decision.result.analyzer == "gpo"
        assert decision.result.witness.trace  # screen witnesses carry traces

    def test_symbolic_catches_screen_blind_spot(self):
        decision = query(conflict_pairs_net(2), "invariant(!(a_out0 & c1))")
        assert decision.holds is False
        assert decision.result.analyzer == "symbolic"
        assert decision.result.witness.marking == frozenset({"a_out0", "c1"})

    def test_unmarked_constraints(self):
        # "a_out0 marked while c0 unmarked" is reachable (fire A0).
        net = conflict_pairs_net(1)
        assert query(net, "invariant(!(a_out0 & !c0))").holds is False
        # but "a_out0 and b_out0 together" is not
        assert query(net, "invariant(!(a_out0 & b_out0))").holds is True

    def test_asat_mutex(self):
        pairs = " | ".join(
            f"(use{i} & use{j})" for i in range(4) for j in range(i + 1, 4)
        )
        assert query(asat(4), f"invariant(!({pairs}))").holds is True

    def test_nsdp_fork_consistency(self):
        # A fork cannot be on the table while its owner eats.
        assert query(nsdp(3), "invariant(!(fork0 & eat0))").holds is True

    def test_describe(self):
        safe = query(rw(2), "invariant(!(writing0 & writing1))")
        assert "property holds" in safe.describe()
        unsafe = query(rw(2), "invariant(!reading0)")
        assert "property violated" in unsafe.describe()
        assert safe.holds is True and unsafe.holds is False

    def test_agrees_with_explicit_model_checking(self):
        net = nsdp(2)
        markings = [net.marking_names(m) for m in explore(net).states()]
        patterns = [
            {"eat0", "eat1"},
            {"hasL0", "hasR0"},
            {"eat0", "fork1"},
            {"think0", "think1"},
        ]
        for pattern in patterns:
            explicit = any(pattern <= marking for marking in markings)
            text = "invariant(!(" + " & ".join(sorted(pattern)) + "))"
            assert query(net, text).holds == (not explicit), text


class TestMonitorNet:
    def test_monitor_fires_iff_reachable(self):
        instrumented, monitor = monitor_net(choice_net(), ["p1"])
        assert monitor not in dead_transitions(instrumented)

    def test_monitor_silent_when_unreachable(self):
        net = conflict_pairs_net(1)
        instrumented, monitor = monitor_net(net, ["a_out0", "b_out0"])
        assert monitor in dead_transitions(instrumented)

    def test_rejects_negative_constraints(self):
        # A transition tests presence, not absence: a negated place names
        # no place to watch, and an empty pattern watches nothing.
        with pytest.raises(UnknownNodeError):
            monitor_net(choice_net(), ["!p1"])
        with pytest.raises(ValueError):
            monitor_net(choice_net(), [])

    def test_monitor_visible_to_gpo(self):
        # The instrumented monitor participates in the conflict structure,
        # so GPO observes the intermediate marking the bare screen misses.
        from repro.gpo import GpoOptions, explore_gpo

        net = conflict_pairs_net(2)
        instrumented, monitor = monitor_net(net, ["a_out0", "c1"])
        result = explore_gpo(
            instrumented, GpoOptions(on_deadlock="continue")
        )
        fired = {link[0] for link in discovery_tree(result.graph) if link}
        assert any(monitor in label for label in fired)
