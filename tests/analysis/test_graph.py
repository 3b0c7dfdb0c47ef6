"""Tests for the labelled reachability-graph structure."""

from repro.search.graph import ReachabilityGraph


class TestBasics:
    def test_initial_state_present(self):
        graph = ReachabilityGraph("s0")
        assert "s0" in graph
        assert graph.num_states == 1
        assert graph.initial == "s0"

    def test_add_state_idempotent(self):
        graph = ReachabilityGraph("s0")
        assert graph.add_state("s1")
        assert not graph.add_state("s1")
        assert graph.num_states == 2

    def test_add_edge_adds_endpoints(self):
        graph = ReachabilityGraph("s0")
        graph.add_edge("s0", "t", "s1")
        assert "s1" in graph
        assert graph.num_edges == 1
        assert graph.successors("s0") == [("t", "s1")]

    def test_parallel_edges_counted(self):
        graph = ReachabilityGraph("s0")
        graph.add_edge("s0", "a", "s1")
        graph.add_edge("s0", "b", "s1")
        assert graph.num_edges == 2

    def test_edges_iteration(self):
        graph = ReachabilityGraph("s0")
        graph.add_edge("s0", "a", "s1")
        graph.add_edge("s1", "b", "s0")
        assert set(graph.edges()) == {("s0", "a", "s1"), ("s1", "b", "s0")}

    def test_len_and_repr(self):
        graph = ReachabilityGraph("s0")
        graph.add_edge("s0", "a", "s1")
        graph.mark_deadlock("s1")
        assert len(graph) == 2
        assert "states=2" in repr(graph)
        assert "deadlocks=1" in repr(graph)

    def test_states_in_discovery_order(self):
        graph = ReachabilityGraph("a")
        graph.add_edge("a", "t", "b")
        graph.add_edge("a", "u", "c")
        assert list(graph.states()) == ["a", "b", "c"]


class TestPaths:
    def build_diamond(self):
        graph = ReachabilityGraph("s0")
        graph.add_edge("s0", "l", "left")
        graph.add_edge("s0", "r", "right")
        graph.add_edge("left", "l2", "goal")
        graph.add_edge("right", "r2", "goal")
        graph.add_edge("goal", "loop", "s0")
        return graph

    def test_path_to_initial_is_empty(self):
        assert self.build_diamond().path_to("s0") == []

    def test_shortest_path(self):
        graph = ReachabilityGraph("s0")
        graph.add_edge("s0", "long1", "mid")
        graph.add_edge("mid", "long2", "goal")
        graph.add_edge("s0", "short", "goal")
        path = graph.path_to("goal")
        assert path == [("short", "goal")]

    def test_path_labels(self):
        path = self.build_diamond().path_to("goal")
        assert path is not None
        assert len(path) == 2
        assert path[-1][1] == "goal"

    def test_unknown_state_returns_none(self):
        assert self.build_diamond().path_to("ghost") is None

    def test_unreachable_state_returns_none(self):
        graph = ReachabilityGraph("s0")
        graph.add_state("island")
        assert graph.path_to("island") is None
