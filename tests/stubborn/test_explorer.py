"""Tests for the reduced explorer and its paper-level claims."""

import pytest

from repro.analysis import ExplorationLimitReached, explore
from repro.models import (
    choice_net,
    concurrent_net,
    conflict_pairs_net,
    nsdp,
    rw,
)
from repro.stubborn import analyze, explore_reduced


class TestFigureClaims:
    def test_figure1_linear(self):
        # §2.3: "from N! factorial interleavings to N linear" — one path.
        for n in (1, 2, 3, 4, 5, 6):
            graph = explore_reduced(concurrent_net(n))
            assert graph.num_states == n + 1

    def test_figure2_binary_tree(self):
        # §2.3 "Problem": the anticipated RG still has 2^(N+1) - 1 states.
        for n in (1, 2, 3, 4, 5):
            graph = explore_reduced(conflict_pairs_net(n))
            assert graph.num_states == 2 ** (n + 1) - 1

    def test_rw_no_reduction(self):
        # §4: for RW the reduced state space equals the complete one.
        for n in (2, 3, 4):
            net = rw(n)
            assert explore_reduced(net).num_states == explore(net).num_states


class TestDeadlockPreservation:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nsdp_deadlock_preserved(self, n):
        net = nsdp(n)
        full = explore(net)
        reduced = explore_reduced(net)
        assert bool(full.deadlocks) == bool(reduced.deadlocks)
        assert reduced.num_states <= full.num_states
        # every reduced deadlock is a true deadlock
        for marking in reduced.deadlocks:
            assert net.is_deadlocked(marking)

    def test_reduced_states_subset_of_full(self):
        net = nsdp(3)
        full_states = set(explore(net).states())
        for state in explore_reduced(net).states():
            assert state in full_states


class TestAnalyze:
    def test_verdict_and_witness(self):
        result = analyze(choice_net())
        assert result.deadlock
        assert result.analyzer == "stubborn"
        assert result.witness is not None

    def test_live_net(self, loop_net):
        assert not analyze(loop_net).deadlock

    def test_limit(self):
        with pytest.raises(ExplorationLimitReached):
            explore_reduced(nsdp(5), max_states=3)

    def test_stop_at_first_deadlock(self):
        graph = explore_reduced(nsdp(3), stop_at_first_deadlock=True)
        assert len(graph.deadlocks) == 1
