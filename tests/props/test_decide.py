"""The planner: structural fast path, decomposition, compat drops."""

from __future__ import annotations

import pytest

from repro.engine.jobs import Budget
from repro.models import nsdp
from repro.props.ast import PropertyError
from repro.props.decide import Decision, decide

BUDGET = Budget(max_states=30_000, max_seconds=30.0)


class TestStructuralFastPath:
    def test_mutex_refuted_without_exploration(self):
        decision = decide(nsdp(3), "reachable(eat0 & eat1)", budget=BUDGET)
        assert decision.holds is False
        assert decision.result.analyzer == "static"
        assert decision.result.states == 0

    def test_mutex_invariant_proved_without_exploration(self):
        decision = decide(nsdp(3), "invariant(!(eat0 & eat1))", budget=BUDGET)
        assert decision.holds is True
        assert decision.result.states == 0

    def test_safety_by_certificate(self):
        decision = decide(nsdp(3), "safe", budget=BUDGET)
        assert decision.holds is True
        assert decision.result.analyzer in ("static", "safety-walk")

    def test_no_static_forces_the_engine(self):
        decision = decide(
            nsdp(3), "reachable(eat0)", budget=BUDGET, use_static=False
        )
        assert decision.holds is True
        assert decision.result.analyzer != "static"
        assert decision.result.states > 0


class TestPlanner:
    def test_deadlock_question(self):
        decision = decide(nsdp(3), "deadlock", budget=BUDGET)
        assert decision.holds is True
        assert decision.conclusive

    def test_compound_short_circuits(self):
        # reachable(eat0) is true, so the conjunction reduces to deadlock.
        decision = decide(
            nsdp(3), "reachable(eat0) & !deadlock", budget=BUDGET
        )
        assert decision.holds is False

    def test_incompatible_methods_are_dropped_with_reason(self):
        decision = decide(
            nsdp(3),
            "reachable(eat0)",
            methods=("stubborn", "symbolic"),
            budget=BUDGET,
            use_static=False,
        )
        assert decision.holds is True
        dropped = dict(decision.dropped)
        assert "stubborn" in dropped
        assert "deadlock" in dropped["stubborn"]

    def test_describe_mentions_property_and_drops(self):
        decision = decide(
            nsdp(3),
            "reachable(eat0)",
            methods=("stubborn", "symbolic"),
            budget=BUDGET,
            use_static=False,
        )
        text = decision.describe()
        assert "property: reachable(eat0)" in text
        assert "[compat] stubborn dropped" in text

    def test_unknown_place_raises(self):
        with pytest.raises(PropertyError):
            decide(nsdp(3), "reachable(nope)", budget=BUDGET)

    def test_malformed_raises(self):
        with pytest.raises(PropertyError):
            decide(nsdp(3), "reachable(", budget=BUDGET)

    def test_decision_is_a_dataclass_with_three_valued_holds(self):
        decision = decide(nsdp(2), "true", budget=BUDGET)
        assert isinstance(decision, Decision)
        assert decision.holds is True
        decision = decide(nsdp(2), "false", budget=BUDGET)
        assert decision.holds is False


def _two_producers():
    """Two producers feed one buffer place: the second put doubles it."""
    from repro.net import NetBuilder

    builder = NetBuilder("two_producers")
    builder.place("buf")
    for i in range(2):
        builder.place(f"idle{i}", marked=True)
        builder.place(f"ready{i}")
        builder.transition(f"make{i}", inputs=[f"idle{i}"], outputs=[f"ready{i}"])
        builder.transition(
            f"put{i}", inputs=[f"ready{i}"], outputs=[f"idle{i}", "buf"]
        )
    builder.transition("take", inputs=["buf"], outputs=[])
    return builder.build()


class TestSafetyWalk:
    def test_walk_honours_the_clock(self):
        import gc
        import time

        net = nsdp(10)
        net.kernel()
        budget = Budget(max_states=200_000, max_seconds=0.1)
        # Start from a clean heap so a full collection of earlier tests'
        # garbage does not land inside the measured window.
        gc.collect()
        start = time.perf_counter()
        decision = decide(net, "safe", budget=budget, use_static=False)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.25
        assert decision.holds is None
        assert decision.result.extras["aborted"] == "> 0.1s"
        assert 0.1 <= decision.result.time_seconds < 0.25

    def test_unsafe_verdict_replays(self):
        from repro.net.exceptions import UnsafeNetError
        from repro.reduce.trace import replay

        net = _two_producers()
        decision = decide(net, "safe", budget=BUDGET)
        assert decision.holds is False
        witness = decision.result.witness
        trace = witness.trace
        assert trace
        before = replay(net, trace[:-1])
        assert net.marking_names(before) == witness.marking
        with pytest.raises(UnsafeNetError):
            net.fire_by_name(trace[-1], before)

    def test_structural_and_check_outputs_unchanged(self, tmp_path, capsys):
        from repro.harness.cli import main
        from repro.net import save_net
        from repro.static.safety import assured_safety

        net = _two_producers()
        assert assured_safety(net) == ("unsafe", "dynamic")
        path = str(tmp_path / "two_producers.net")
        save_net(net, path)
        assert main(["check", path]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "safety: VIOLATION — firing 'put1' would make place 'buf' "
            "unsafe (more than one token)"
        )
