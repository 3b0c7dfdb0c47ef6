"""Tests for symbolic reachability and deadlock detection."""

import time

import pytest

from repro.analysis import TimeLimitReached, reachable_markings
from repro.analysis.reachability import KernelMarkingSpace
from repro.models import (
    choice_net,
    concurrent_net,
    conflict_pairs_net,
    nsdp,
    rw,
)
from repro.symbolic import analyze, reach


class TestReach:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: choice_net(),
            lambda: concurrent_net(4),
            lambda: conflict_pairs_net(3),
            lambda: nsdp(2),
            lambda: rw(3),
        ],
    )
    def test_state_count_matches_explicit(self, make):
        net = make()
        result = reach(net)
        assert result.num_states == len(reachable_markings(net))

    def test_contains(self):
        net = choice_net()
        result = reach(net)
        assert result.contains(net.initial_marking)
        assert result.contains(net.marking_from_names(["p1"]))
        assert not result.contains(net.marking_from_names(["p0", "p1"]))

    def test_iterations_is_bfs_depth(self):
        # A 3-step pipeline needs 4 frontier expansions (last is empty).
        result = reach(concurrent_net(1))
        assert result.iterations == 2

    def test_monolithic_agrees_with_partitioned(self):
        net = conflict_pairs_net(3)
        assert (
            reach(net, partitioned=False).num_states
            == reach(net, partitioned=True).num_states
        )

    def test_no_force_order_agrees(self):
        net = nsdp(2)
        assert (
            reach(net, use_force_order=False).num_states
            == reach(net).num_states
        )

    def test_peak_positive(self):
        assert reach(choice_net()).peak_nodes > 0


class TestDeadlock:
    def test_deadlock_found(self):
        result = reach(nsdp(2))
        marking = result.deadlock_marking()
        assert marking is not None
        net = nsdp(2)
        assert net.is_deadlocked(marking)

    def test_live_net_none(self):
        assert reach(rw(2)).deadlock_marking() is None


class TestAnalyze:
    def test_verdict_and_extras(self):
        result = analyze(nsdp(2))
        assert result.deadlock
        assert result.analyzer == "symbolic"
        assert result.extras["peak_bdd_nodes"] > 0
        assert result.extras["iterations"] > 0
        assert result.witness is not None
        assert result.witness.trace == ()  # no trace from forward reach

    def test_live_verdict(self):
        result = analyze(rw(2))
        assert not result.deadlock
        assert result.witness is None

    def test_time_limit(self):
        with pytest.raises(TimeLimitReached):
            reach(nsdp(6), max_seconds=0.0)

    def test_expired_budget_reports_the_initial_marking(self):
        result = analyze(nsdp(6), max_seconds=0.0)
        assert not result.exhaustive
        assert result.states == 1
        assert result.extras["iterations"] == 0

    def test_overrun_reports_the_reached_ball(self):
        # The markings within k steps of m0, k the completed iterations.
        net = nsdp(10)
        result = analyze(net, max_seconds=0.05)
        assert not result.exhaustive
        radius = result.extras["iterations"]
        space = KernelMarkingSpace(net)
        ball = ring = {space.initial()}
        for _ in range(radius):
            ring = {
                succ
                for bits in ring
                for _, succ in space.successors(bits, None)
            } - ball
            ball = ball | ring
        assert result.states == len(ball)

    def test_time_limit_inside_an_iteration(self):
        # Symbolic NSDP(10) runs for seconds; the deadline is checked
        # before every per-transition image, so the overrun is one image.
        start = time.perf_counter()
        with pytest.raises(TimeLimitReached):
            reach(nsdp(10), max_seconds=0.3)
        assert time.perf_counter() - start < 0.3 + 0.15
