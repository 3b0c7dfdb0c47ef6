"""Tests for the RW benchmark family."""

import pytest

from repro import query
from repro.analysis import analyze, explore
from repro.models import rw
from repro.net import check_safe, StructuralInfo
from repro.stubborn import explore_reduced


class TestStructure:
    def test_sizes(self):
        net = rw(3)
        assert net.num_places == 1 + 3 * 3  # controller + free/reading/writing
        assert net.num_transitions == 4 * 3

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            rw(1)

    def test_safe(self):
        assert check_safe(rw(3))

    def test_single_conflict_component_among_starts(self):
        # Every start transition conflicts (transitively) with every other.
        net = rw(4)
        info = StructuralInfo(net)
        starts = {
            net.transition_id(f"start{kind}{i}")
            for kind in ("read", "write")
            for i in range(4)
        }
        components = {info.mcs_of[t] for t in starts}
        assert len(components) == 1


class TestBehaviour:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_deadlock_free(self, n):
        assert not analyze(rw(n)).deadlock

    def test_writer_exclusive(self):
        net = rw(3)
        decision = query(
            net,
            "invariant(!((writing0 & writing1) | (writing0 & writing2)"
            " | (writing1 & writing2)))",
        )
        assert decision.holds is True

    def test_writer_excludes_readers(self):
        net = rw(3)

        writing = " | ".join(f"writing{i}" for i in range(3))
        reading = " | ".join(f"reading{i}" for i in range(3))
        decision = query(net, f"invariant(!(({writing}) & ({reading})))")
        assert decision.holds is True

    def test_concurrent_readers_allowed(self):
        net = rw(3)
        m = net.initial_marking
        m = net.fire_by_name("startread0", m)
        m = net.fire_by_name("startread1", m)
        assert "reading0" in net.marking_names(m)
        assert "reading1" in net.marking_names(m)

    def test_state_count_formula(self):
        # any subset of readers + n exclusive-writer states
        for n in (2, 3, 4, 6):
            assert explore(rw(n)).num_states == 2**n + n

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_po_reduction_degenerates(self, n):
        # The paper's §4 observation, exactly: reduced == full.
        net = rw(n)
        assert explore_reduced(net).num_states == explore(net).num_states
