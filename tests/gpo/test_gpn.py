"""Tests for GPN construction and state identity."""

from repro.gpo import Gpn
from repro.models import (
    asat,
    choice_net,
    concurrent_net,
    conflict_pairs_net,
    figure7_net,
    nsdp,
)
from tests.oracle import oracle_gpn


class TestConstruction:
    def test_r0_counts(self):
        # n independent conflict pairs: 2^n scenarios.
        for n in (1, 2, 3, 5):
            gpn = Gpn(conflict_pairs_net(n))
            assert gpn.r0.count() == 2**n

    def test_no_conflicts_single_scenario(self):
        gpn = Gpn(concurrent_net(4))
        assert gpn.r0.count() == 1
        only = gpn.r0.any_set()
        assert only == frozenset(range(4))  # every transition chosen

    def test_initial_state_marking(self):
        net = choice_net()
        gpn = Gpn(net)
        state = gpn.initial_state()
        assert state.marking[net.place_id("p0")] == gpn.r0
        assert state.marking[net.place_id("p1")].is_empty()
        assert state.valid == gpn.r0

    def test_backends_agree_on_r0(self):
        # BDD r0 against the frozenset oracle's Bron–Kerbosch enumeration.
        for net in (conflict_pairs_net(3), nsdp(3), asat(2), figure7_net()):
            explicit = oracle_gpn(net)
            bdd = Gpn(net)
            assert explicit.r0.as_frozensets() == bdd.r0.as_frozensets()


class TestStateIdentity:
    def test_equal_states_hash_equal(self):
        gpn = Gpn(choice_net())
        s1 = gpn.initial_state()
        s2 = gpn.initial_state()
        assert s1 == s2
        assert hash(s1) == hash(s2)

    def test_distinct_states_differ(self):
        from repro.gpo import multiple_fire

        gpn = Gpn(choice_net())
        s0 = gpn.initial_state()
        s1 = multiple_fire(gpn, s0, frozenset([0, 1]))
        assert s0 != s1

    def test_repr(self):
        gpn = Gpn(choice_net())
        assert "scenarios=2" in repr(gpn.initial_state())


class TestLabels:
    def test_set_label_sorted(self):
        net = conflict_pairs_net(2)
        gpn = Gpn(net)
        label = gpn.set_label(
            frozenset(
                [net.transition_id("B0"), net.transition_id("A1")]
            )
        )
        assert label == "{A1,B0}"

    def test_scenario_label(self):
        net = choice_net()
        gpn = Gpn(net)
        assert gpn.scenario_label(frozenset([net.transition_id("a")])) == "{a}"

    def test_iter_place_families_skips_empty(self):
        net = choice_net()
        gpn = Gpn(net)
        pairs = dict(gpn.iter_place_families(gpn.initial_state()))
        assert set(pairs) == {"p0"}
