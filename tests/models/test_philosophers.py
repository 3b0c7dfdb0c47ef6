"""Tests for the NSDP benchmark family."""

import pytest

from repro.analysis import analyze, explore
from repro.models import nsdp
from repro.net import check_safe


class TestStructure:
    def test_sizes(self):
        net = nsdp(3)
        # 3 forks + 6 local places per philosopher
        assert net.num_places == 3 + 6 * 3
        assert net.num_transitions == 8 * 3

    def test_left_first_variant(self):
        net = nsdp(3, order="left-first")
        assert net.num_transitions == 3 * 3

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            nsdp(1)
        with pytest.raises(ValueError):
            nsdp(3, order="sideways")

    @pytest.mark.parametrize("order", ["either", "left-first"])
    def test_safe(self, order):
        assert check_safe(nsdp(3, order=order))


class TestBehaviour:
    @pytest.mark.parametrize("order", ["either", "left-first"])
    def test_deadlocks(self, order):
        # The circular wait: everybody holds one fork.
        result = analyze(nsdp(3, order=order))
        assert result.deadlock and result.witness is not None

    def test_deadlock_is_circular_wait(self):
        net = nsdp(3, order="left-first")
        graph = explore(net)
        assert len(graph.deadlocks) == 1
        (dead,) = graph.deadlocks
        names = net.marking_names(dead)
        assert names == frozenset({"wait0", "wait1", "wait2"})

    def test_full_state_counts_match_published_shape(self):
        # Ours: 17, 78, 341 — the paper's 18/322 shape (growth ≈ φ³ ≈ 4.24
        # per philosopher).
        counts = [explore(nsdp(n)).num_states for n in (2, 3, 4)]
        assert counts == [17, 78, 341]
        growth = counts[2] / counts[1]
        assert 4.0 < growth < 4.6

    def test_all_philosophers_symmetric(self):
        net = nsdp(4)
        graph = explore(net, max_states=1000)
        # the initial state enables exactly 2 first-grabs per philosopher
        enabled = net.enabled_transitions(net.initial_marking)
        assert len(enabled) == 8
