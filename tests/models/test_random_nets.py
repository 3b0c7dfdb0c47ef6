"""Tests for the random-net generators used by the property suites."""

import random

import pytest

from repro.models import random_net, random_state_machine_product
from repro.net import check_safe


class TestRandomNet:
    def test_deterministic_for_seed(self):
        a = random_net(random.Random(5))
        b = random_net(random.Random(5))
        assert a == b

    def test_respects_sizes(self):
        net = random_net(random.Random(1), num_places=9, num_transitions=7)
        assert net.num_places == 9
        assert net.num_transitions == 7

    def test_every_transition_has_inputs(self):
        net = random_net(random.Random(2), num_transitions=10, num_places=8)
        for t in range(net.num_transitions):
            assert net.pre_places[t]


class TestStateMachineProduct:
    def test_safe_by_construction(self):
        for seed in range(25):
            net = random_state_machine_product(random.Random(seed))
            assert check_safe(net, max_states=20000)

    def test_deterministic_for_seed(self):
        a = random_state_machine_product(random.Random(9))
        b = random_state_machine_product(random.Random(9))
        assert a == b

    def test_component_tokens_conserved(self):
        from repro.analysis import explore

        net = random_state_machine_product(
            random.Random(3), num_components=3, states_per_component=3
        )
        graph = explore(net, max_states=20000)
        for marking in graph.states():
            names = net.marking_names(marking)
            for c in range(3):
                local = sum(1 for n in names if n.startswith(f"c{c}_s"))
                assert local == 1, "each component holds exactly one token"

    def test_sometimes_deadlocks(self):
        # The generator must produce both verdicts to be a useful test bed.
        from repro.analysis import analyze

        verdicts = {
            analyze(random_state_machine_product(random.Random(seed))).deadlock
            for seed in range(30)
        }
        assert verdicts == {True, False}

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            random_state_machine_product(
                random.Random(0), states_per_component=1
            )
