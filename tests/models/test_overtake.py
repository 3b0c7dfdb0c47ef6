"""Tests for the OVER benchmark family."""

import pytest

from repro.analysis import analyze, explore
from repro.models import over
from repro.net import check_safe


class TestStructure:
    def test_sizes(self):
        net = over(3)
        assert net.num_places == 10 * 3
        assert net.num_transitions == 7 * 3

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            over(1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_safe(self, n):
        assert check_safe(over(n))


class TestBehaviour:
    def test_deadlock_when_all_ask(self):
        # Everyone signalling intent simultaneously is the circular wait.
        net = over(3)
        marking = net.initial_marking
        for i in range(3):
            marking = net.fire_by_name(f"ask{i}", marking)
        assert net.is_deadlocked(marking)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_deadlock_reachable(self, n):
        assert analyze(over(n)).deadlock

    def test_successful_overtake_cycle(self):
        # One car overtakes; everything returns to the initial state.
        net = over(2)
        m = net.initial_marking
        for label in (
            "ask0",
            "grant1",
            "pullout0",
            "pass0",
            "done0",
            "resume1",
            "settle0",
        ):
            m = net.fire_by_name(label, m)
        assert m == net.initial_marking

    def test_state_counts(self):
        counts = [explore(over(n)).num_states for n in (2, 3, 4)]
        assert counts == [16, 62, 256]
        # exponential growth per car
        assert counts[2] / counts[1] > 3.5
