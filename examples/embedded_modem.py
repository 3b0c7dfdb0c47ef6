#!/usr/bin/env python3
"""Verifying an embedded-system design: a QAM modem receive path.

The paper's closing section reports applying generalized partial-order
analysis to real embedded designs (a QAM modem among them).  This example
plays that story on our reconstruction: a multi-lane receive pipeline
whose controller can retrain the shared equalizer engine.

The buggy revision finishes a retrain only "once the equalizer's input
channel has drained" — a quiescence condition that can never hold while
the FIR stage keeps filling the channel.  With 3 lanes the interleaved
state space exceeds half a million states and exhaustive search becomes
slow, while the generalized analysis pins the wedge in 11 GPN states —
independent of the lane count — and prints the scenario that reaches it.

Run:  python examples/embedded_modem.py [lanes]
"""

import sys

from repro import query
from repro.analysis import analyze as full_analyze
from repro.gpo import analyze as gpo_analyze
from repro.models import modem
from repro.stubborn import analyze as stubborn_analyze


def main(lanes: int = 3):
    buggy = modem(lanes, bug=True)
    print(f"{buggy.name}: |P|={buggy.num_places} |T|={buggy.num_transitions}")

    # Exhaustive search struggles as lanes are added...
    full = full_analyze(buggy, max_states=100_000)
    print(f"  full reachability: {full.describe()}")

    # ...the reductions do not.
    reduced = stubborn_analyze(buggy, max_states=100_000)
    print(f"  stubborn sets:     {reduced.describe()}")
    gpo = gpo_analyze(buggy)
    print(f"  generalized PO:    {gpo.describe()}")
    assert gpo.deadlock and reduced.deadlock
    print(f"\n  witness: {gpo.witness}\n")

    # The fix drops the impossible quiescence condition.
    fixed = modem(lanes, bug=False)
    gpo = gpo_analyze(fixed)
    reduced = stubborn_analyze(fixed, max_states=100_000)
    print(f"{fixed.name}: gpo -> {gpo.describe()}")
    print(f"{fixed.name}: stubborn -> {reduced.describe()}")
    assert not gpo.deadlock and not reduced.deadlock

    # And the handshake invariants survive the fix: no channel is ever
    # simultaneously full and empty, and the shared equalizer engine is
    # never training while a lane claims it is idle... for lane 0, whose
    # equalizer the engine pauses.
    bad = [f"(ch{k}_l0_full & ch{k}_l0_empty)" for k in (1, 2, 3)]
    bad.append("(eq_training & eq_idle_l0)")
    safety = query(fixed, f"invariant(!({' | '.join(bad)}))")
    print(f"\n{safety.describe()}")
    assert safety.holds
    print("\nThe retrain wedge is gone; the handshake invariants hold.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
