"""Regeneration of the paper's figure-level claims.

* **Figure 1** — ``n`` concurrent transitions: the full reachability graph
  is the ``2^n`` Boolean lattice (all interleavings), partial-order
  reduction explores a single path of ``n + 1`` states.
* **Figure 2 / §3.1** — ``n`` concurrently marked conflict pairs: the
  anticipated (PO-reduced) graph still has ``2^(n+1) - 1`` states, while
  generalized analysis explores 2.
* **Figure 3** — the colored-token walkthrough: a narrated trace of the
  GPN states, with the paper's statements (D can never fire, C fires on
  the red path) checked programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reachability import explore
from repro.gpo import Gpn, explore_gpo, mapping_named
from repro.gpo.semantics import enabled_families, multiple_fire, single_fire
from repro.harness.report import format_table
from repro.models import concurrent_net, conflict_pairs_net, figure3_net
from repro.stubborn import explore_reduced

__all__ = [
    "FigureRow",
    "figure1_series",
    "figure2_series",
    "figure3_walkthrough",
    "format_series",
]


@dataclass
class FigureRow:
    """One point of a figure series."""

    n: int
    full_states: int
    reduced_states: int
    gpo_states: int

    def cells(self) -> list[str]:
        return [
            str(self.n),
            str(self.full_states),
            str(self.reduced_states),
            str(self.gpo_states),
        ]


def figure1_series(sizes: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)) -> list[FigureRow]:
    """Full vs reduced vs GPO state counts on the Figure 1 net."""
    rows = []
    for n in sizes:
        net = concurrent_net(n)
        rows.append(
            FigureRow(
                n=n,
                full_states=explore(net).num_states,
                reduced_states=explore_reduced(net).num_states,
                gpo_states=explore_gpo(net).graph.num_states,
            )
        )
    return rows


def figure2_series(sizes: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)) -> list[FigureRow]:
    """Full vs reduced vs GPO state counts on the Figure 2 net."""
    rows = []
    for n in sizes:
        net = conflict_pairs_net(n)
        rows.append(
            FigureRow(
                n=n,
                full_states=explore(net).num_states,
                reduced_states=explore_reduced(net).num_states,
                gpo_states=explore_gpo(net).graph.num_states,
            )
        )
    return rows


def format_series(rows: list[FigureRow], *, title: str) -> str:
    """Render a figure series as an ASCII table."""
    return format_table(
        ["n", "full", "PO-reduced", "GPO"],
        [row.cells() for row in rows],
        title=title,
    )


def figure3_walkthrough() -> str:
    """Narrate the Figure 3 walkthrough and check the paper's statements.

    Returns a human-readable transcript; raises ``AssertionError`` if any
    of the paper's claims fails (the unit tests call this too).
    """
    net = figure3_net()
    gpn = Gpn(net)
    state = gpn.initial_state()
    lines = [f"net: {net.name}; scenarios r0 = {gpn.r0.count()}"]

    single, multiple = enabled_families(gpn, state)
    a = net.transition_id("A")
    b = net.transition_id("B")
    c = net.transition_id("C")
    d = net.transition_id("D")
    assert a in multiple and b in multiple, "A and B start multiple-enabled"
    lines.append("state 0: A and B multiple-enabled -> fire {A,B}")
    state = multiple_fire(gpn, state, frozenset([a, b]), families=(single, multiple))
    lines.append(
        "state 1 markings: "
        + "; ".join(
            f"{place}={sorted(tuple(sorted(net.transitions[t] for t in v)) for v in fam.iter_sets())}"
            for place, fam in gpn.iter_place_families(state)
        )
    )

    single, multiple = enabled_families(gpn, state)
    assert c in single, "C fires on the red (A) path"
    assert d not in single, "D sees conflicting colors and can never fire"
    lines.append("state 1: C single-enabled, D blocked (conflicting colors)")
    state = single_fire(gpn, state, c)
    covered = mapping_named(gpn, state)
    lines.append(f"state 2 classical markings covered: {sorted(map(sorted, covered))}")
    return "\n".join(lines) + "\n"
