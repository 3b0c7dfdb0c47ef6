"""Tests for stubborn-set computation (conditions D1/D2/key)."""

from repro.models import choice_net, concurrent_net, conflict_pairs_net, rw
from repro.net.kernel import iter_bits
from repro.stubborn.stubborn import stubborn_enabled_mask


def closure_of(net, marking, seed):
    """Close ``{seed}`` (an enabled transition) under D1/D2 in ``marking``."""
    kernel = net.kernel()
    bits = kernel.encode(marking)
    assert kernel.is_enabled(seed, bits), "stubborn seed must be enabled"
    return set(iter_bits(kernel.stubborn_closure(bits, 1 << seed)))


def fired_in(net, marking):
    """The enabled part of the stubborn set chosen in ``marking``."""
    kernel = net.kernel()
    bits = kernel.encode(marking)
    return stubborn_enabled_mask(kernel, bits, kernel.enabled_mask(bits))


class TestClosure:
    def test_independent_seed_stays_singleton(self):
        net = concurrent_net(4)
        closure = closure_of(net, net.initial_marking, 0)
        assert closure == {0}

    def test_conflicters_pulled_in(self):
        net = choice_net()
        closure = closure_of(net, net.initial_marking, 0)
        assert closure == {0, 1}

    def test_d1_disabled_producers_pulled_in(self):
        # t needs an empty place q; only w produces q.  Seeding with the
        # enabled conflicter of t must pull w into the closure.
        from repro.net import NetBuilder

        builder = NetBuilder()
        builder.place("c", marked=True)
        builder.place("q")
        builder.place("z", marked=True)
        builder.place("x")
        builder.place("y")
        builder.transition("a", inputs=["c"], outputs=["x"])
        builder.transition("b", inputs=["c", "q"], outputs=["y"])
        builder.transition("w", inputs=["z"], outputs=["q"])
        net = builder.build()
        closure = closure_of(net, net.initial_marking, net.transition_id("a"))
        assert closure == {0, 1, 2}  # a, b (disabled), w (producer)

    def test_key_transition_present(self):
        net = conflict_pairs_net(3)
        for seed in net.enabled_transitions(net.initial_marking):
            closure = closure_of(net, net.initial_marking, seed)
            enabled = [
                t for t in closure if net.is_enabled(t, net.initial_marking)
            ]
            assert enabled, "stubborn set must contain an enabled transition"


class TestStubbornEnabled:
    def test_deadlock_returns_empty(self):
        net = choice_net()
        dead = net.marking_from_names(["p1"])
        assert fired_in(net, dead) == []

    def test_best_strategy_fires_one_pair(self):
        net = conflict_pairs_net(4)
        fired = fired_in(net, net.initial_marking)
        assert len(fired) == 2  # exactly one conflict pair
        a, b = sorted(net.transitions[t] for t in fired)
        assert a[1:] == b[1:]  # same pair index

    def test_rw_degenerates_to_all_enabled(self):
        # The paper's RW observation: no reduction is possible.
        net = rw(3)
        fired = fired_in(net, net.initial_marking)
        assert set(fired) == set(
            net.enabled_transitions(net.initial_marking)
        )
