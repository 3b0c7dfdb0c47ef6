"""Tests for candidate-MCS selection and the single-firing persistent sets."""

from repro.gpo import (
    Gpn,
    candidate_mcs,
    enabled_families,
    multiple_fire,
    single_enabled_mcs,
)
from repro.models import (
    choice_net,
    concurrent_net,
    conflict_pairs_net,
    figure3_net,
    nsdp,
)


def names(gpn, component):
    return frozenset(gpn.net.transitions[t] for t in component)


class TestCandidateMcs:
    def test_conflict_pairs_all_candidates(self):
        gpn = Gpn(conflict_pairs_net(3))
        _, multiple = enabled_families(gpn, gpn.initial_state())
        candidates = candidate_mcs(gpn, multiple)
        assert {names(gpn, c) for c in candidates} == {
            frozenset({"A0", "B0"}),
            frozenset({"A1", "B1"}),
            frozenset({"A2", "B2"}),
        }

    def test_independent_transitions_singletons(self):
        gpn = Gpn(concurrent_net(3))
        _, multiple = enabled_families(gpn, gpn.initial_state())
        candidates = candidate_mcs(gpn, multiple)
        assert all(len(c) == 1 for c in candidates)
        assert len(candidates) == 3

    def test_partition_property(self):
        # Candidates partition the multiple-enabled transitions.
        gpn = Gpn(nsdp(3))
        _, multiple = enabled_families(gpn, gpn.initial_state())
        candidates = candidate_mcs(gpn, multiple)
        union = set().union(*candidates) if candidates else set()
        assert union == set(multiple)
        total = sum(len(c) for c in candidates)
        assert total == len(union)  # disjoint

    def test_enabled_induced_not_full_component(self):
        # NSDP initially: only the first-fork grabs are enabled, yet they
        # form candidates even though their *full* conflict component also
        # contains the (disabled) second-fork grabs.
        gpn = Gpn(nsdp(2))
        single, multiple = enabled_families(gpn, gpn.initial_state())
        candidates = candidate_mcs(gpn, multiple)
        assert candidates, "NSDP must have candidates initially"
        fired = frozenset().union(*candidates)
        full_components = {
            frozenset(gpn.info.mcs(t)) for t in fired
        }
        assert any(not (c <= fired) for c in full_components), (
            "the test net should have disabled conflicters outside the "
            "candidate"
        )

    def test_no_candidates_in_dead_state(self):
        gpn = Gpn(choice_net())
        state = multiple_fire(gpn, gpn.initial_state(), frozenset([0, 1]))
        _, multiple = enabled_families(gpn, state)
        assert candidate_mcs(gpn, multiple) == []


class TestSingleEnabledMcs:
    def test_fully_enabled_component_found(self):
        gpn = Gpn(choice_net())
        single, _ = enabled_families(gpn, gpn.initial_state())
        component = single_enabled_mcs(gpn, single)
        assert component is not None
        assert names(gpn, component) == {"a", "b"}

    def test_partially_enabled_component_skipped(self):
        # Figure 3 after {A,B}: C is single-enabled but D is not, so the
        # full component {C,D} is not eligible.
        gpn = Gpn(figure3_net())
        a = gpn.net.transition_id("A")
        b = gpn.net.transition_id("B")
        state = multiple_fire(gpn, gpn.initial_state(), frozenset([a, b]))
        single, _ = enabled_families(gpn, state)
        assert single_enabled_mcs(gpn, single) is None

    def test_smallest_component_preferred(self):
        from repro.net import NetBuilder

        builder = NetBuilder()
        builder.place("big", marked=True)
        builder.place("small", marked=True)
        for name in ("o1", "o2", "o3", "o4", "o5"):
            builder.place(name)
        builder.transition("x", inputs=["big"], outputs=["o1"])
        builder.transition("y", inputs=["big"], outputs=["o2"])
        builder.transition("z", inputs=["big"], outputs=["o3"])
        builder.transition("s", inputs=["small"], outputs=["o4"])
        builder.transition("t", inputs=["small"], outputs=["o5"])
        gpn = Gpn(builder.build())
        single, _ = enabled_families(gpn, gpn.initial_state())
        component = single_enabled_mcs(gpn, single)
        assert component is not None
        assert names(gpn, component) == {"s", "t"}
