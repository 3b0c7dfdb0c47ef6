#!/usr/bin/env python3
"""A guided tour of Generalized Petri Net semantics (paper Section 3).

Re-enacts the paper's Figures 3 and 7 step by step, printing the scenario
families ("colored tokens") in each place, the valid-set family ``r``, and
the classical markings every GPN state covers — including the *extended
conflict* effect of Figure 7 where ``r`` collapses to ``{{A,C},{B,D}}``.

Run:  python examples/scenario_semantics.py
"""

from repro.gpo import (
    Gpn,
    dead_scenarios,
    enabled_families,
    mapping_named,
    multiple_fire,
    single_fire,
)
from repro.models import figure3_net, figure7_net


def show_state(gpn, state, label):
    print(f"--- {label}")
    for place, family in gpn.iter_place_families(state):
        scenarios = sorted(
            "{" + ",".join(sorted(gpn.net.transitions[t] for t in v)) + "}"
            for v in family.iter_sets()
        )
        print(f"  m({place}) = {{{', '.join(scenarios)}}}")
    valid = sorted(
        "{" + ",".join(sorted(gpn.net.transitions[t] for t in v)) + "}"
        for v in state.valid.iter_sets()
    )
    print(f"  r = {{{', '.join(valid)}}}")
    covered = sorted(sorted(m) for m in mapping_named(gpn, state))
    print(f"  covers classical markings: {covered}")


def tour_figure3():
    print("=" * 64)
    print("Figure 3: colored tokens distinguish conflicting paths")
    print("=" * 64)
    net = figure3_net()
    gpn = Gpn(net)
    state = gpn.initial_state()
    show_state(gpn, state, "initial state (white token in p1)")

    a, b = net.transition_id("A"), net.transition_id("B")
    state = multiple_fire(gpn, state, frozenset([a, b]))
    show_state(gpn, state, "after firing A and B simultaneously")
    print(
        "  p2/p3 now hold the 'red' (A) scenarios, p4 the 'green' (B) ones."
    )

    single, _ = enabled_families(gpn, state)
    c, d = net.transition_id("C"), net.transition_id("D")
    print(f"  C single-enabled: {c in single};  D single-enabled: {d in single}")
    print("  (D's inputs carry conflicting colors — it can never fire.)")

    dead = dead_scenarios(gpn, state)
    print(
        "  dead scenarios (the B branch, classical marking {p4}):",
        sorted(
            "{" + ",".join(sorted(net.transitions[t] for t in v)) + "}"
            for v in dead.iter_sets()
        ),
    )

    state = single_fire(gpn, state, c)
    show_state(gpn, state, "after firing C (single semantics, no recoloring)")


def tour_figure7():
    print()
    print("=" * 64)
    print("Figure 7: sequential conflicts induce extended conflicts")
    print("=" * 64)
    net = figure7_net()
    gpn = Gpn(net)
    state = gpn.initial_state()
    show_state(gpn, state, "initial state")

    a, b = net.transition_id("A"), net.transition_id("B")
    state = multiple_fire(gpn, state, frozenset([a, b]))
    show_state(gpn, state, "after firing {A,B}  (r unchanged)")

    c, d = net.transition_id("C"), net.transition_id("D")
    state = multiple_fire(gpn, state, frozenset([c, d]))
    show_state(gpn, state, "after firing {C,D}")
    print(
        "  r collapsed to {{A,C},{B,D}}: if A preceded C and C conflicts"
        "\n  with D, then A 'extendedly' conflicts with D — the paper's r2."
    )


if __name__ == "__main__":
    tour_figure3()
    tour_figure7()
