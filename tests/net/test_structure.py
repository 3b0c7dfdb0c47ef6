"""Tests for the conflict relation and maximal conflict sets (Def. 2.2)."""

from repro.models import conflict_pairs_net, figure3_net
from repro.net import NetBuilder, StructuralInfo, conflict, maximal_conflict_sets
from repro.net.structure import (
    are_independent,
    conflict_graph,
    conflict_places,
)


def names(net, component):
    return frozenset(net.transitions[t] for t in component)


class TestConflict:
    def test_self_conflict(self, choice):
        a = choice.transition_id("a")
        assert conflict(choice, a, a)

    def test_shared_input_conflicts(self, choice):
        a = choice.transition_id("a")
        b = choice.transition_id("b")
        assert conflict(choice, a, b)

    def test_disjoint_inputs_do_not_conflict(self):
        net = conflict_pairs_net(2)
        a0 = net.transition_id("A0")
        a1 = net.transition_id("A1")
        assert not conflict(net, a0, a1)

    def test_conflict_graph_no_self_loops(self, choice):
        adjacency = conflict_graph(choice)
        for t, neighbors in enumerate(adjacency):
            assert t not in neighbors

    def test_output_sharing_is_not_conflict(self):
        builder = NetBuilder()
        builder.place("p", marked=True)
        builder.place("q", marked=True)
        builder.place("r")
        builder.transition("t", inputs=["p"], outputs=["r"])
        builder.transition("u", inputs=["q"], outputs=["r"])
        net = builder.build()
        assert not conflict(net, 0, 1)


class TestMaximalConflictSets:
    def test_pairs(self):
        net = conflict_pairs_net(3)
        components = maximal_conflict_sets(net)
        assert len(components) == 3
        assert {names(net, c) for c in components} == {
            frozenset({"A0", "B0"}),
            frozenset({"A1", "B1"}),
            frozenset({"A2", "B2"}),
        }

    def test_singletons(self):
        from repro.models import concurrent_net

        net = concurrent_net(4)
        components = maximal_conflict_sets(net)
        assert all(len(c) == 1 for c in components)
        assert len(components) == 4

    def test_figure3_components(self):
        net = figure3_net()
        components = maximal_conflict_sets(net)
        assert {names(net, c) for c in components} == {
            frozenset({"A", "B"}),
            frozenset({"C", "D"}),
        }

    def test_closure_property(self):
        # No transition outside a component conflicts with a member.
        net = figure3_net()
        for component in maximal_conflict_sets(net):
            outside = set(range(net.num_transitions)) - component
            for t in outside:
                for u in component:
                    assert not conflict(net, t, u)

    def test_deterministic_order(self):
        net = conflict_pairs_net(3)
        assert maximal_conflict_sets(net) == maximal_conflict_sets(net)


class TestStructuralInfo:
    def test_mcs_membership(self):
        net = figure3_net()
        info = StructuralInfo(net)
        a = net.transition_id("A")
        b = net.transition_id("B")
        assert info.mcs(a) == info.mcs(b)
        assert b in info.conflicters(a)

    def test_conflict_places(self, choice):
        assert conflict_places(choice) == frozenset({choice.place_id("p0")})

    def test_conflicting_pairs_sorted_unique(self):
        net = conflict_pairs_net(2)
        info = StructuralInfo(net)
        assert len(info.conflicting_pairs) == 2
        for t, u in info.conflicting_pairs:
            assert t < u

    def test_nontrivial_mcs(self):
        from repro.models import concurrent_net

        info = StructuralInfo(concurrent_net(3))
        assert info.nontrivial_mcs() == []
        info2 = StructuralInfo(conflict_pairs_net(2))
        assert len(info2.nontrivial_mcs()) == 2

    def test_transitions_in_conflict(self, choice):
        info = StructuralInfo(choice)
        assert info.transitions_in_conflict() == frozenset({0, 1})


class TestIndependence:
    def test_same_transition_not_independent(self, choice):
        assert not are_independent(choice, 0, 0)

    def test_conflicting_not_independent(self, choice):
        assert not are_independent(choice, 0, 1)

    def test_disjoint_independent(self):
        net = conflict_pairs_net(2)
        a0 = net.transition_id("A0")
        b1 = net.transition_id("B1")
        assert are_independent(net, a0, b1)

