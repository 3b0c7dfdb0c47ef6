"""Tests for DOT export of nets and reachability graphs."""

from repro.analysis import explore, fired_edges
from repro.models import choice_net
from repro.net import net_to_dot, reachability_to_dot


class TestNetToDot:
    def test_contains_nodes_and_arcs(self):
        net = choice_net()
        dot = net_to_dot(net)
        assert dot.startswith("digraph")
        assert '"p_p0"' in dot
        assert '"t_a"' in dot
        assert '"p_p0" -> "t_a"' in dot
        assert dot.rstrip().endswith("}")

    def test_marked_place_highlighted(self):
        dot = net_to_dot(choice_net())
        assert "fillcolor" in dot
        assert "●" in dot

    def test_custom_marking(self):
        net = choice_net()
        dot = net_to_dot(net, marking=net.marking_from_names(["p1"]))
        assert "p1 ●" in dot

    def test_quoting(self):
        from repro.net import NetBuilder

        builder = NetBuilder('weird"name')
        builder.place('pl"ace', marked=True)
        builder.transition("t", inputs=['pl"ace'])
        dot = net_to_dot(builder.build())
        assert '\\"' in dot


class TestReachabilityToDot:
    def test_full_graph(self):
        net = choice_net()
        graph = explore(net)
        dot = reachability_to_dot(
            net,
            graph.states(),
            fired_edges(net, graph.states()),
            initial=net.initial_marking,
            deadlocks=graph.deadlocks,
        )
        assert dot.count("->") == graph.num_edges
        # deadlock states get doublecircle
        assert "doublecircle" in dot
        assert "{p1}" in dot or "{p2}" in dot

    def test_custom_labels(self):
        net = choice_net()
        graph = explore(net)
        dot = reachability_to_dot(
            net,
            graph.states(),
            fired_edges(net, graph.states()),
            state_label=lambda s: f"S{len(s)}",
        )
        assert "S1" in dot
