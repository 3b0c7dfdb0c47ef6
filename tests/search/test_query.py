"""On-the-fly reachability queries over full and stubborn spaces."""

from repro.analysis.reachability import reachable_markings
from repro.models import nsdp
from repro.search.query import find_state
from repro.stubborn.explorer import KernelStubbornSpace

from tests.oracle import OracleMarkingSpace


def _names_predicate(net, *places):
    wanted = frozenset(places)

    def hit(marking):
        return wanted <= net.marking_names(marking)

    return hit


class TestFindState:
    def test_finds_reachable_deadlock_marking(self):
        net = nsdp(2)
        result = find_state(
            OracleMarkingSpace(net), _names_predicate(net, "hasR0", "hasR1")
        )
        assert result.reached
        assert result.conclusive
        assert result.state is not None
        assert result.trace is not None and len(result.trace) == 2

    def test_early_termination_explores_less(self):
        net = nsdp(4)
        full_size = len(reachable_markings(net))
        result = find_state(
            OracleMarkingSpace(net),
            _names_predicate(net, "hasR0", "hasR1", "hasR2", "hasR3"),
        )
        assert result.reached
        assert result.outcome.graph.num_states < full_size

    def test_initial_state_matches_immediately(self):
        net = nsdp(2)
        result = find_state(OracleMarkingSpace(net), lambda marking: True)
        assert result.reached
        assert result.state == net.initial_marking
        assert result.trace == ()
        assert result.outcome.graph.num_states == 1

    def test_miss_on_exhausted_space_is_conclusive(self):
        net = nsdp(2)
        result = find_state(OracleMarkingSpace(net), lambda marking: False)
        assert not result.reached
        assert result.exhaustive
        assert result.conclusive

    def test_miss_under_budget_is_inconclusive(self):
        net = nsdp(4)
        result = find_state(
            OracleMarkingSpace(net), lambda marking: False, max_states=10
        )
        assert not result.reached
        assert not result.exhaustive
        assert not result.conclusive

    def test_stubborn_space_finds_preserved_deadlock(self):
        # Stubborn sets preserve deadlocks, so the deadlocked marking is
        # reachable inside the reduced space too.
        net = nsdp(2)
        space = KernelStubbornSpace(net)
        hit = _names_predicate(net, "hasR0", "hasR1")
        result = find_state(space, lambda bits: hit(space.decode(bits)))
        assert result.reached

    def test_dfs_order_also_finds_target(self):
        net = nsdp(2)
        result = find_state(
            OracleMarkingSpace(net),
            _names_predicate(net, "hasR0", "hasR1"),
            order="dfs",
        )
        assert result.reached
        assert result.trace is not None
