"""Tests for the producer/consumer extra model."""

import pytest

from repro.analysis import analyze, explore
from repro.models import bounded_buffer
from repro.net import check_safe


class TestStructure:
    def test_sizes(self):
        net = bounded_buffer(2, 2, 3)
        # 2*capacity buffer places + 2 per producer + 2 per consumer
        assert net.num_places == 6 + 4 + 4

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            bounded_buffer(0, 1, 1)
        with pytest.raises(ValueError):
            bounded_buffer(1, 1, 0)

    def test_safe(self):
        assert check_safe(bounded_buffer())


class TestBehaviour:
    @pytest.mark.parametrize(
        "producers,consumers,capacity",
        [(1, 1, 1), (2, 1, 2), (1, 2, 2), (2, 2, 2)],
    )
    def test_deadlock_free(self, producers, consumers, capacity):
        net = bounded_buffer(producers, consumers, capacity)
        assert not analyze(net).deadlock

    def test_item_flows_through(self):
        net = bounded_buffer(1, 1, 1)
        m = net.initial_marking
        m = net.fire_by_name("produce0", m)
        m = net.fire_by_name("deposit0_cell0", m)
        assert "full0" in net.marking_names(m)
        m = net.fire_by_name("fetch0_cell0", m)
        m = net.fire_by_name("process0", m)
        assert m == net.initial_marking

    def test_buffer_capacity_respected(self):
        net = bounded_buffer(2, 1, 1)
        graph = explore(net)
        for marking in graph.states():
            names = net.marking_names(marking)
            fulls = sum(1 for n in names if n.startswith("full"))
            assert fulls <= 1
