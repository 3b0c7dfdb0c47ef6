"""Tests for the discovery-tree graph store."""

from repro.search.core import explore
from repro.search.graph import ReachabilityGraph


class DictSpace:
    """A search space over an explicit ``state -> [(label, target)]`` dict."""

    def __init__(self, initial, edges):
        self._initial = initial
        self._edges = edges

    def initial(self):
        return self._initial

    def is_deadlock(self, state):
        return not self._edges.get(state)

    def successors(self, state, ctx):
        return self._edges.get(state, [])


def drive(initial, edges, **budget):
    return explore(DictSpace(initial, edges), order="bfs", **budget).graph


class TestBasics:
    def test_initial_state_present(self):
        graph = ReachabilityGraph("s0")
        assert "s0" in graph
        assert graph.num_states == 1
        assert graph.initial == "s0"

    def test_insert_new_returns_consecutive_indices(self):
        graph = ReachabilityGraph("s0")
        assert graph.insert_new("s1", 0, "t") == 1
        assert graph.insert_new("s2", 1, "u") == 2
        assert graph.index_of("s2") == 2
        assert graph.num_states == 3

    def test_insert_new_records_discovery_edge(self):
        graph = ReachabilityGraph("s0")
        graph.insert_new("s1", 0, "t")
        assert "s1" in graph
        assert graph.path_to("s1") == [("t", "s1")]

    def test_parallel_edges_counted(self):
        graph = drive("s0", {"s0": [("a", "s1"), ("b", "s1")]})
        assert graph.num_edges == 2
        assert graph.num_states == 2

    def test_discovery_path_of_each_state(self):
        graph = drive("s0", {"s0": [("a", "s1")], "s1": [("b", "s0")]})
        assert graph.num_edges == 2
        assert [graph.path_to(s) for s in graph.states()] == [[], [("a", "s1")]]

    def test_len_and_repr(self):
        graph = ReachabilityGraph("s0")
        graph.insert_new("s1", 0, "a")
        graph.mark_deadlock("s1")
        assert len(graph) == 2
        assert "states=2" in repr(graph)
        assert "deadlocks=1" in repr(graph)

    def test_states_in_discovery_order(self):
        graph = drive("a", {"a": [("t", "b"), ("u", "c")]})
        assert list(graph.states()) == ["a", "b", "c"]

    def test_map_states_keeps_tree_and_count(self):
        graph = drive("s0", {"s0": [("a", "s1"), ("b", "s1")]})
        graph.mark_deadlock("s1")
        mapped = graph.map_states(str.upper)
        assert list(mapped.states()) == ["S0", "S1"]
        assert mapped.path_to("S1") == [("a", "S1")]
        assert mapped.num_edges == 2
        assert mapped.deadlocks == {"S1"}


class TestPaths:
    DIAMOND = {
        "s0": [("l", "left"), ("r", "right")],
        "left": [("l2", "goal")],
        "right": [("r2", "goal")],
        "goal": [("loop", "s0")],
    }

    def build_diamond(self):
        return drive("s0", self.DIAMOND)

    def test_path_to_initial_is_empty(self):
        assert self.build_diamond().path_to("s0") == []

    def test_shortest_path(self):
        graph = drive(
            "s0",
            {"s0": [("long1", "mid"), ("short", "goal")], "mid": [("long2", "goal")]},
        )
        path = graph.path_to("goal")
        assert path == [("short", "goal")]

    def test_path_labels(self):
        path = self.build_diamond().path_to("goal")
        assert path == [("l", "left"), ("l2", "goal")]

    def test_unknown_state_returns_none(self):
        assert self.build_diamond().path_to("ghost") is None

    def test_unreachable_state_returns_none(self):
        # A state the budget kept out of the graph has no path inside it.
        graph = drive("s0", {"s0": [("a", "s1")], "s1": [("b", "s2")]}, max_states=2)
        assert graph.path_to("s1") == [("a", "s1")]
        assert graph.path_to("s2") is None
