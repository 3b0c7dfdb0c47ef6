"""Tests for the Def. 3.4 mapping between GPN states and classical markings."""

from repro.gpo import Gpn, mapping, mapping_named, multiple_fire, scenario_marking
from repro.models import choice_net, conflict_pairs_net, figure7_net


class TestInitialState:
    def test_initial_maps_to_m0(self):
        net = conflict_pairs_net(3)
        gpn = Gpn(net)
        assert mapping(gpn, gpn.initial_state()) == {net.initial_marking}

    def test_scenario_marking_matches_membership(self):
        net = choice_net()
        gpn = Gpn(net)
        state = gpn.initial_state()
        for scenario in state.valid.iter_sets():
            marking = scenario_marking(gpn, state, scenario)
            assert marking == net.initial_marking


class TestAfterFiring:
    def test_choice_covers_both_branches(self):
        net = choice_net()
        gpn = Gpn(net)
        after = multiple_fire(gpn, gpn.initial_state(), frozenset([0, 1]))
        assert mapping_named(gpn, after) == {
            frozenset({"p1"}),
            frozenset({"p2"}),
        }

    def test_exponential_coverage(self):
        # One multiple firing of n conflict pairs covers 2^n markings.
        n = 6
        net = conflict_pairs_net(n)
        gpn = Gpn(net)
        fired = frozenset(range(net.num_transitions))
        after = multiple_fire(gpn, gpn.initial_state(), fired)
        assert len(mapping(gpn, after)) == 2**n

    def test_limit_parameter(self):
        net = conflict_pairs_net(5)
        gpn = Gpn(net)
        fired = frozenset(range(net.num_transitions))
        after = multiple_fire(gpn, gpn.initial_state(), fired)
        assert len(mapping(gpn, after, limit=3)) <= 3


class TestConsistencyWithClassical:
    def test_mapped_markings_are_reachable(self):
        from repro.analysis import reachable_markings

        net = figure7_net()
        gpn = Gpn(net)
        reachable = reachable_markings(net)
        state = gpn.initial_state()
        a, b = net.transition_id("A"), net.transition_id("B")
        state = multiple_fire(gpn, state, frozenset([a, b]))
        assert mapping(gpn, state) <= reachable
        c, d = net.transition_id("C"), net.transition_id("D")
        state = multiple_fire(gpn, state, frozenset([c, d]))
        assert mapping(gpn, state) <= reachable
