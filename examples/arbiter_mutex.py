#!/usr/bin/env python3
"""Safety verification of the asynchronous arbiter tree (ASAT).

Checks the two properties an arbiter must provide —

* **mutual exclusion**: no two users ever hold the resource together
  (a safety property, checked as unreachability of bad markings);
* **deadlock freedom**: the grant/release handshakes can never wedge —

and contrasts how hard each analyzer works for the same verdict.  Also
exports the net and its (small-instance) reachability graph as Graphviz
DOT files for inspection.

Run:  python examples/arbiter_mutex.py [n_users] [--dot]
"""

import sys

from repro import query
from repro.analysis import analyze as full_analyze, explore, fired_edges
from repro.gpo import analyze as gpo_analyze
from repro.models import asat
from repro.net import net_to_dot, reachability_to_dot
from repro.stubborn import analyze as stubborn_analyze
from repro.symbolic import analyze as symbolic_analyze


def main(n: int = 4, write_dot: bool = False):
    net = asat(n)
    print(f"{net.name}: |P|={net.num_places} |T|={net.num_transitions}\n")

    # -- mutual exclusion --------------------------------------------------
    two_users_active = " | ".join(
        f"(use{i} & use{j})" for i in range(n) for j in range(i + 1, n)
    )
    mutex = query(net, f"invariant(!({two_users_active}))")
    print("mutual exclusion:", mutex.result.describe())
    assert mutex.holds

    # -- deadlock freedom, all four ways ------------------------------------
    for analyzer in (full_analyze, stubborn_analyze, symbolic_analyze, gpo_analyze):
        result = analyzer(net)
        print(result.describe())
        assert not result.deadlock

    print(
        "\nNote the working-set sizes: the full graph explodes with the "
        "number of users,\nstubborn sets tame most of it (arbiter trees are "
        "concurrency-heavy), and GPO\nstays nearly flat by also merging the "
        "grant choices."
    )

    if write_dot:
        with open("asat_net.dot", "w") as handle:
            handle.write(net_to_dot(net))
        graph = explore(net, max_states=5_000)
        with open("asat_rg.dot", "w") as handle:
            handle.write(
                reachability_to_dot(
                    net,
                    graph.states(),
                    fired_edges(net, graph.states()),
                    initial=net.initial_marking,
                    deadlocks=graph.deadlocks,
                )
            )
        print("\nwrote asat_net.dot and asat_rg.dot (render with `dot -Tpdf`)")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    main(size, write_dot="--dot" in sys.argv)
