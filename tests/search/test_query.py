"""On-the-fly marking queries: a :class:`MarkingQueryObserver` on the
search driver, over full and stubborn spaces.

This is the mechanism behind every ``reachable``/``invariant`` goal of
the explicit analyzers (:func:`repro.search.goals.compile_goal`).
"""

from repro.analysis.reachability import reachable_markings
from repro.models import nsdp
from repro.search.core import explore
from repro.search.observers import MarkingQueryObserver
from repro.stubborn.explorer import KernelStubbornSpace

from tests.oracle import OracleMarkingSpace


def _names_predicate(net, *places):
    wanted = frozenset(places)

    def hit(marking):
        return wanted <= net.marking_names(marking)

    return hit


def _query(space, predicate, *, order="bfs", max_states=None):
    """``(matched state, shortest trace or None, outcome)``."""
    observer = MarkingQueryObserver(predicate)
    outcome = explore(
        space, order=order, max_states=max_states, observers=(observer,)
    )
    if observer.matched is None:
        return None, None, outcome
    path = outcome.graph.path_to(observer.matched)
    return observer.matched, tuple(label for label, _ in path), outcome


class TestFindState:
    def test_finds_reachable_deadlock_marking(self):
        net = nsdp(2)
        state, trace, outcome = _query(
            OracleMarkingSpace(net), _names_predicate(net, "hasR0", "hasR1")
        )
        assert state is not None
        assert outcome.stop_reason == "observer"
        assert trace is not None and len(trace) == 2

    def test_early_termination_explores_less(self):
        net = nsdp(4)
        full_size = len(reachable_markings(net))
        state, _, outcome = _query(
            OracleMarkingSpace(net),
            _names_predicate(net, "hasR0", "hasR1", "hasR2", "hasR3"),
        )
        assert state is not None
        assert outcome.graph.num_states < full_size

    def test_initial_state_matches_immediately(self):
        net = nsdp(2)
        state, trace, outcome = _query(
            OracleMarkingSpace(net), lambda marking: True
        )
        assert state == net.initial_marking
        assert trace == ()
        assert outcome.graph.num_states == 1

    def test_miss_on_exhausted_space_is_conclusive(self):
        net = nsdp(2)
        state, _, outcome = _query(
            OracleMarkingSpace(net), lambda marking: False
        )
        assert state is None
        assert outcome.exhaustive

    def test_miss_under_budget_is_inconclusive(self):
        net = nsdp(4)
        state, _, outcome = _query(
            OracleMarkingSpace(net), lambda marking: False, max_states=10
        )
        assert state is None
        assert not outcome.exhaustive

    def test_stubborn_space_finds_preserved_deadlock(self):
        # Stubborn sets preserve deadlocks, so the deadlocked marking is
        # reachable inside the reduced space too.
        net = nsdp(2)
        space = KernelStubbornSpace(net)
        hit = _names_predicate(net, "hasR0", "hasR1")
        state, _, _ = _query(space, lambda bits: hit(space.decode(bits)))
        assert state is not None

    def test_dfs_order_also_finds_target(self):
        net = nsdp(2)
        state, trace, _ = _query(
            OracleMarkingSpace(net),
            _names_predicate(net, "hasR0", "hasR1"),
            order="dfs",
        )
        assert state is not None
        assert trace is not None
