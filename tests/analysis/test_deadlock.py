"""Deadlock questions on the kept path: the full analyzer's verdict and
witness, and the deadlocks its explored graph records."""

from repro.analysis import analyze, explore
from repro.models import choice_net, concurrent_net, nsdp
from repro.obs import names
from repro.search.witness import extract_witness


class TestFindDeadlock:
    def test_found_with_trace(self):
        result = analyze(choice_net())
        assert result.deadlock
        witness = result.witness
        assert witness.marking in (frozenset({"p1"}), frozenset({"p2"}))
        assert witness.trace in (("a",), ("b",))

    def test_trace_replays(self):
        net = nsdp(3)
        witness = analyze(net).witness
        assert witness is not None
        marking = net.initial_marking
        for label in witness.trace:
            marking = net.fire_by_name(label, marking)
        assert net.marking_names(marking) == witness.marking
        assert net.is_deadlocked(marking)

    def test_none_for_live_net(self, loop_net):
        result = analyze(loop_net)
        assert not result.deadlock
        assert result.exhaustive
        assert result.witness is None

    def test_limit(self):
        result = analyze(nsdp(4), max_states=5)
        assert not result.exhaustive
        assert result.extras[names.ABORTED] == "> 5 states"

    def test_deadlock_at_initial(self):
        from repro.net import NetBuilder

        builder = NetBuilder()
        builder.place("stuck", marked=True)
        builder.place("need")
        builder.place("out")
        builder.transition("t", inputs=["stuck", "need"], outputs=["out"])
        witness = analyze(builder.build()).witness
        assert witness is not None
        assert witness.trace == ()
        assert "at marking" in str(witness)


class TestGraphQueries:
    def test_all_deadlocks_order(self):
        graph = explore(choice_net())
        deadlocks = [s for s in graph.states() if s in graph.deadlocks]
        assert len(deadlocks) == 2
        assert set(deadlocks) == graph.deadlocks

    def test_witnesses_for_every_deadlock(self):
        net = choice_net()
        graph = explore(net)
        traces = {
            net.marking_names(m): tuple(l for l, _ in graph.path_to(m))
            for m in graph.deadlocks
        }
        assert traces == {
            frozenset({"p1"}): ("a",),
            frozenset({"p2"}): ("b",),
        }

    def test_witness_limit(self):
        net = choice_net()
        witness = extract_witness(net, explore(net))
        assert witness is not None
        assert witness.trace in (("a",), ("b",))

    def test_terminal_state_is_deadlock(self):
        graph = explore(concurrent_net(2))
        assert len(graph.deadlocks) == 1
