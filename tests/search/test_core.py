"""The generic driver: orders, budgets, partial results, observers."""

import pytest

from repro.analysis.reachability import KernelMarkingSpace
from repro.models import nsdp
from repro.search.core import (
    INSTRUMENTATION_FIELDS,
    SearchSpace,
    abort_note,
    explore,
    raise_if_bounded,
)
from repro.search.limits import ExplorationLimitReached, TimeLimitReached
from repro.search.observers import MarkingQueryObserver, SearchObserver


class ChainSpace:
    """0 -> 1 -> ... -> n (state n is a deadlock)."""

    def __init__(self, length: int) -> None:
        self.length = length

    def initial(self) -> int:
        return 0

    def successors(self, state, ctx):
        if state < self.length:
            yield (f"t{state}", state + 1)

    def is_deadlock(self, state) -> bool:
        return state == self.length


class DiamondSpace:
    """0 branches to 1 and 2, both reaching 3; plus a back-edge 3 -> 0."""

    def initial(self) -> int:
        return 0

    def successors(self, state, ctx):
        edges = {0: [("a", 1), ("b", 2)], 1: [("c", 3)], 2: [("d", 3)],
                 3: [("back", 0)]}
        return edges[state]

    def is_deadlock(self, state) -> bool:
        return False


class TestDriverBasics:
    def test_marking_space_satisfies_protocol(self):
        assert isinstance(KernelMarkingSpace(nsdp(2)), SearchSpace)

    def test_exhausts_chain(self):
        outcome = explore(ChainSpace(5))
        assert outcome.exhaustive
        assert outcome.stop_reason is None
        assert outcome.graph.num_states == 6
        assert outcome.graph.num_edges == 5
        assert outcome.graph.deadlocks == {5}

    def test_bfs_and_dfs_explore_same_graph(self):
        bfs = explore(DiamondSpace(), order="bfs")
        dfs = explore(DiamondSpace(), order="dfs")
        assert set(bfs.graph.states()) == set(dfs.graph.states())
        assert bfs.graph.num_edges == dfs.graph.num_edges

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="unknown search order"):
            explore(ChainSpace(1), order="random")

    def test_dfs_initial_state_is_first(self):
        outcome = explore(DiamondSpace(), order="dfs")
        assert next(outcome.graph.states()) == 0


class TestBudgets:
    def test_state_budget_stops_exactly_at_capacity(self):
        outcome = explore(ChainSpace(100), max_states=10)
        assert not outcome.exhaustive
        assert outcome.stop_reason == "state-budget"
        assert outcome.graph.num_states == 10

    def test_budget_equal_to_size_is_exhaustive(self):
        outcome = explore(ChainSpace(5), max_states=6)
        assert outcome.exhaustive
        assert outcome.graph.num_states == 6

    def test_zero_time_budget_stops(self):
        outcome = explore(ChainSpace(100), max_seconds=0.0)
        assert not outcome.exhaustive
        assert outcome.stop_reason == "time-budget"

    def test_stop_at_first_deadlock_is_exhaustive(self):
        outcome = explore(ChainSpace(3), stop_at_first_deadlock=True)
        assert outcome.exhaustive
        assert outcome.stop_reason == "deadlock"
        assert outcome.graph.deadlocks == {3}

    def test_raise_if_bounded_maps_state_budget(self):
        outcome = explore(ChainSpace(100), max_states=10)
        with pytest.raises(ExplorationLimitReached) as exc_info:
            raise_if_bounded(outcome, max_states=10)
        assert exc_info.value.states_explored == 10

    def test_raise_if_bounded_maps_time_budget(self):
        outcome = explore(ChainSpace(100), max_seconds=0.0)
        with pytest.raises(TimeLimitReached):
            raise_if_bounded(outcome, max_seconds=0.0)

    def test_raise_if_bounded_passes_exhaustive_through(self):
        outcome = explore(ChainSpace(3))
        assert raise_if_bounded(outcome, max_states=100) is outcome

    def test_abort_notes(self):
        assert abort_note("state-budget", max_states=10) == "> 10 states"
        assert abort_note("time-budget", max_seconds=0.0) == "> 0s"
        assert abort_note("time-budget", max_seconds=0.05) == "> 0.05s"
        assert abort_note("time-budget", max_seconds=0.1) == "> 0.1s"
        assert abort_note("time-budget", max_seconds=30.0) == "> 30s"
        assert abort_note("observer") == "stopped by observer"
        assert abort_note(None) is None
        assert abort_note("deadlock") is None


class TestInstrumentation:
    def test_stats_cover_the_run(self):
        outcome = explore(ChainSpace(5))
        stats = outcome.stats
        assert stats.states == 6
        assert stats.expanded == 6
        assert stats.successor_total == 5
        assert 0.0 < stats.mean_enabled < 1.0
        assert stats.states_per_second > 0
        assert stats.peak_frontier >= 1

    def test_as_extras_has_uniform_fields(self):
        extras = explore(ChainSpace(2)).stats.as_extras()
        for key in ("expanded", "peak_frontier", "mean_enabled",
                    "states_per_second"):
            assert key in extras
            assert key in INSTRUMENTATION_FIELDS

    def test_bounded_run_reports_partial_expansion(self):
        outcome = explore(ChainSpace(100), max_states=10)
        assert outcome.stats.expanded < 100

    def test_peak_frontier_sees_branching(self):
        net = nsdp(4)
        outcome = explore(KernelMarkingSpace(net))
        assert outcome.stats.peak_frontier > 1
        assert outcome.stats.mean_enabled > 1.0


class _Recorder(SearchObserver):
    def __init__(self):
        self.states = []
        self.edges = []
        self.deadlocks = []
        self.done = None

    def on_state(self, state, ctx):
        self.states.append(state)

    def on_edge(self, source, label, target, is_new):
        self.edges.append((source, label, target, is_new))

    def on_deadlock(self, state):
        self.deadlocks.append(state)

    def on_done(self, outcome):
        self.done = outcome


class TestObservers:
    def test_recorder_sees_everything(self):
        recorder = _Recorder()
        outcome = explore(ChainSpace(3), observers=(recorder,))
        assert recorder.states == [0, 1, 2, 3]  # includes the initial state
        assert [e[:3] for e in recorder.edges] == [
            (0, "t0", 1), (1, "t1", 2), (2, "t2", 3)
        ]
        assert recorder.deadlocks == [3]
        assert recorder.done is outcome

    def test_observer_stop_request(self):
        class StopAtTwo(SearchObserver):
            def on_state(self, state, ctx):
                return state == 2

        outcome = explore(ChainSpace(100), observers=(StopAtTwo(),))
        assert not outcome.exhaustive
        assert outcome.stop_reason == "observer"
        assert outcome.graph.num_states == 3

    def test_marking_query_observer(self):
        query = MarkingQueryObserver(lambda state: state == 4)
        outcome = explore(ChainSpace(100), observers=(query,))
        assert query.matched == 4
        assert outcome.stop_reason == "observer"
        assert outcome.graph.num_states == 5

    def test_query_miss_leaves_search_exhaustive(self):
        query = MarkingQueryObserver(lambda state: False)
        outcome = explore(ChainSpace(5), observers=(query,))
        assert query.matched is None
        assert outcome.exhaustive
