"""GPN firing semantics against the paper's worked examples.

Every figure of Section 3 is encoded and its statements asserted
*literally*: the enabling families, the firing effects, the ``r`` updates
(including Fig. 7's extended conflict ``r2 = {{A,C},{B,D}}``), and the
classical-marking mappings.  Each test runs twice: on the production BDD
families and on the frozenset family oracle of ``tests/oracle.py``.
"""

import pytest

from repro.gpo import (
    Gpn,
    GpnState,
    dead_scenarios,
    enabled_families,
    m_enabled,
    mapping_named,
    multiple_fire,
    s_enabled,
    single_fire,
)
from repro.models import figure3_net, figure5_net, figure7_net
from tests.oracle import oracle_gpn

#: Family representation -> GPN constructor.
BACKENDS = {"explicit": oracle_gpn, "bdd": Gpn}


def sets_named(gpn, family):
    """Render a family as frozensets of transition names."""
    return {
        frozenset(gpn.net.transitions[t] for t in v)
        for v in family.iter_sets()
    }


def family_from_names(gpn, *name_sets):
    ids = [
        frozenset(gpn.net.transition_id(name) for name in names)
        for names in name_sets
    ]
    return gpn.ctx.from_sets(ids)


@pytest.fixture(params=sorted(BACKENDS, reverse=True))
def make_gpn(request):
    return BACKENDS[request.param]


class TestFigure5:
    """Single firing semantics (Defs. 3.2 and 3.3)."""

    def make_state(self, gpn):
        # The depicted state: m(p0)={{A},{B}}, m(p1)={{A}}, m(p2)={{B}}.
        net = gpn.net
        empty = gpn.ctx.empty()
        marking = [empty] * net.num_places
        marking[net.place_id("p0")] = family_from_names(gpn, {"A"}, {"B"})
        marking[net.place_id("p1")] = family_from_names(gpn, {"A"})
        marking[net.place_id("p2")] = family_from_names(gpn, {"B"})
        return GpnState(tuple(marking), gpn.r0)

    def test_r0_is_the_papers_r(self, make_gpn):
        gpn = make_gpn(figure5_net())
        assert sets_named(gpn, gpn.r0) == {
            frozenset({"A"}),
            frozenset({"B"}),
        }

    def test_single_enabling(self, make_gpn):
        gpn = make_gpn(figure5_net())
        state = self.make_state(gpn)
        a = gpn.net.transition_id("A")
        b = gpn.net.transition_id("B")
        assert sets_named(gpn, s_enabled(gpn, state, a)) == {frozenset({"A"})}
        assert s_enabled(gpn, state, b).is_empty()

    def test_mapping_before_firing(self, make_gpn):
        gpn = make_gpn(figure5_net())
        state = self.make_state(gpn)
        assert mapping_named(gpn, state) == {
            frozenset({"p0", "p1"}),
            frozenset({"p0", "p2"}),
        }

    def test_single_fire_moves_common_history(self, make_gpn):
        gpn = make_gpn(figure5_net())
        state = self.make_state(gpn)
        a = gpn.net.transition_id("A")
        after = single_fire(gpn, state, a)
        net = gpn.net
        assert sets_named(
            gpn, after.marking[net.place_id("p0")]
        ) == {frozenset({"B"})}
        assert after.marking[net.place_id("p1")].is_empty()
        assert sets_named(
            gpn, after.marking[net.place_id("p3")]
        ) == {frozenset({"A"})}
        # r unchanged by single firing (Def. 3.3)
        assert after.valid == state.valid

    def test_mapping_after_firing(self, make_gpn):
        # The paper: mapping(m', r) = {{p3}, {p0, p2}}.
        gpn = make_gpn(figure5_net())
        state = self.make_state(gpn)
        after = single_fire(gpn, state, gpn.net.transition_id("A"))
        assert mapping_named(gpn, after) == {
            frozenset({"p3"}),
            frozenset({"p0", "p2"}),
        }

    def test_firing_disabled_raises(self, make_gpn):
        gpn = make_gpn(figure5_net())
        state = self.make_state(gpn)
        with pytest.raises(ValueError):
            single_fire(gpn, state, gpn.net.transition_id("B"))


class TestFigure7:
    """Multiple firing semantics (Defs. 3.5 and 3.6)."""

    def test_r0(self, make_gpn):
        gpn = make_gpn(figure7_net())
        assert sets_named(gpn, gpn.r0) == {
            frozenset({"A", "C"}),
            frozenset({"A", "D"}),
            frozenset({"B", "C"}),
            frozenset({"B", "D"}),
        }

    def test_multiple_enabling_in_initial_state(self, make_gpn):
        # m_enabled(A) = {{A,C},{A,D}}, m_enabled(B) = {{B,C},{B,D}}.
        gpn = make_gpn(figure7_net())
        state = gpn.initial_state()
        a = gpn.net.transition_id("A")
        b = gpn.net.transition_id("B")
        assert sets_named(gpn, m_enabled(gpn, state, a)) == {
            frozenset({"A", "C"}),
            frozenset({"A", "D"}),
        }
        assert sets_named(gpn, m_enabled(gpn, state, b)) == {
            frozenset({"B", "C"}),
            frozenset({"B", "D"}),
        }

    def test_initial_mapping_is_m0(self, make_gpn):
        gpn = make_gpn(figure7_net())
        assert mapping_named(gpn, gpn.initial_state()) == {
            frozenset({"p0", "p3"})
        }

    def fire_ab(self, gpn):
        state = gpn.initial_state()
        a = gpn.net.transition_id("A")
        b = gpn.net.transition_id("B")
        return multiple_fire(gpn, state, frozenset([a, b]))

    def test_fire_ab(self, make_gpn):
        # r1 = r0; mapping(m1) = {{p1,p3},{p2,p3}}.
        gpn = make_gpn(figure7_net())
        state1 = self.fire_ab(gpn)
        assert state1.valid == gpn.r0
        assert mapping_named(gpn, state1) == {
            frozenset({"p1", "p3"}),
            frozenset({"p2", "p3"}),
        }

    def test_fire_cd_extended_conflict(self, make_gpn):
        # r2 = {{A,C},{B,D}} — the extended conflict between A/D and B/C.
        gpn = make_gpn(figure7_net())
        state1 = self.fire_ab(gpn)
        c = gpn.net.transition_id("C")
        d = gpn.net.transition_id("D")
        state2 = multiple_fire(gpn, state1, frozenset([c, d]))
        assert sets_named(gpn, state2.valid) == {
            frozenset({"A", "C"}),
            frozenset({"B", "D"}),
        }
        assert mapping_named(gpn, state2) == {frozenset({"p3", "p5"})} or (
            mapping_named(gpn, state2) == {frozenset({"p5"})}
        )

    def test_final_state_maps_to_single_marking(self, make_gpn):
        # The paper: the final state maps to the single marking {p5}.
        gpn = make_gpn(figure7_net())
        state1 = self.fire_ab(gpn)
        c = gpn.net.transition_id("C")
        d = gpn.net.transition_id("D")
        state2 = multiple_fire(gpn, state1, frozenset([c, d]))
        assert mapping_named(gpn, state2) == {frozenset({"p5"})}

    def test_multiple_fire_requires_enabled(self, make_gpn):
        gpn = make_gpn(figure7_net())
        state = gpn.initial_state()
        c = gpn.net.transition_id("C")
        with pytest.raises(ValueError):
            multiple_fire(gpn, state, frozenset([c]))


class TestFigure3:
    """The colored-token walkthrough (Section 3.1)."""

    def test_walkthrough(self, make_gpn):
        gpn = make_gpn(figure3_net())
        net = gpn.net
        state = gpn.initial_state()
        a, b = net.transition_id("A"), net.transition_id("B")
        c, d = net.transition_id("C"), net.transition_id("D")

        state1 = multiple_fire(gpn, state, frozenset([a, b]))
        # p2 and p3 are "painted red" (A), p4 "green" (B).
        assert sets_named(gpn, state1.marking[net.place_id("p2")]) == {
            frozenset({"A", "C"}),
            frozenset({"A", "D"}),
        }
        single, multiple = enabled_families(gpn, state1)
        # "Transition D cannot fire!" — its inputs carry conflicting colors.
        assert d not in single
        assert d not in multiple
        # "Transition C, on the other hand, can fire."
        assert c in single

        state2 = single_fire(gpn, state1, c)
        assert not state2.marking[net.place_id("p5")].is_empty()

    def test_b_branch_is_a_dead_scenario(self, make_gpn):
        # After {A,B}, the B scenarios enable nothing: classical marking
        # {p4} is a deadlock.
        gpn = make_gpn(figure3_net())
        net = gpn.net
        a, b = net.transition_id("A"), net.transition_id("B")
        state1 = multiple_fire(
            gpn, gpn.initial_state(), frozenset([a, b])
        )
        dead = dead_scenarios(gpn, state1)
        assert sets_named(gpn, dead) == {
            frozenset({"B", "C"}),
            frozenset({"B", "D"}),
        }
