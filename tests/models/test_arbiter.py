"""Tests for the ASAT benchmark family."""

import pytest

from repro import query
from repro.analysis import analyze, dead_transitions, explore
from repro.models import asat
from repro.net import check_safe, diagnose


class TestStructure:
    def test_power_of_two_required(self):
        for bad in (0, 1, 3, 6):
            with pytest.raises(ValueError):
                asat(bad)

    def test_tree_shape(self):
        net = asat(4)
        # 3 cells for 4 users: cells c0_0, c0_1, c1_0
        assert "free_c0_0" in net.places
        assert "free_c1_0" in net.places
        assert "free_c2_0" not in net.places

    def test_clean_structure(self):
        assert diagnose(asat(2)).clean

    def test_safe(self):
        assert check_safe(asat(4))


class TestBehaviour:
    @pytest.mark.parametrize("n", [2, 4])
    def test_deadlock_free(self, n):
        assert not analyze(asat(n)).deadlock

    def test_mutual_exclusion(self):
        # The arbiter's whole point: at most one user in its 'use' place.
        net = asat(4)
        pairs = " | ".join(
            f"(use{i} & use{j})" for i in range(4) for j in range(i + 1, 4)
        )
        assert query(net, f"invariant(!({pairs}))").holds is True

    def test_every_user_can_acquire(self):
        assert dead_transitions(asat(2)) == []

    def test_state_explosion_shape(self):
        # Roughly two orders of magnitude per doubling (paper: 88 -> 7822).
        small = explore(asat(2)).num_states
        large = explore(asat(4)).num_states
        assert small == 36
        assert large == 768
        assert large / small > 10
