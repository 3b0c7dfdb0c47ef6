"""Stubborn / persistent set computation for safe Petri nets.

Implements the deadlock-preserving stubborn sets of Valmari's "A Stubborn
Attack on State Explosion" [14] in the insertion-algorithm formulation, the
same theory SPIN's partial-order package [8, 9] implements for deadlock
detection.  In each explored marking only the *enabled members* of one
stubborn set are fired; all deadlocks of the full reachability graph remain
reachable in the reduced graph.

A set ``S`` of transitions is (deadlock-preserving) stubborn in marking
``m`` when:

* **D1** — for every *disabled* ``t ∈ S`` there is an unmarked input place
  ``p`` (the *scapegoat*) with all producers of ``p`` in ``S``: outside
  transitions cannot enable ``t`` without going through ``S``;
* **D2** — for every *enabled* ``t ∈ S`` every transition that may disable
  ``t`` is in ``S``; in a Petri net only transitions sharing an input place
  with ``t`` (its *conflicters*, Def. 2.2) can disable it;
* **key** — ``S`` contains at least one enabled transition.

The closure establishes D1/D2 by construction, and any enabled seed
provides the key transition.  Because every conflicter of an enabled member
is inside ``S``, the enabled part of ``S`` is exactly the "maximal set of
conflicting transitions" the paper's Section 2.3 fires — when no disabled
transition sneaks into the closure.  When one does, its producers get pulled
in, possibly growing the set up to all of ``T`` (no reduction), which is
precisely the degenerate behaviour the paper reports for the RW benchmark.

There is exactly **one** closure implementation:
:meth:`~repro.net.kernel.MarkingKernel.stubborn_closure`, a bitmask
fixpoint over the kernel's precompiled ``conflicters_mask`` /
``scapegoat_plan`` tables.  :func:`stubborn_enabled_mask` chooses the set
to fire from packed markings: it closes from every enabled seed and fires
the closure whose enabled part is smallest.  The closure is a least
fixpoint whose result *set* does not depend on worklist order (the
scapegoat choice is deterministic per marking), and seeds are tried in
ascending order, so the fired lists — and therefore the reduced graph —
are a function of the marking alone.
"""

from __future__ import annotations

from repro.net.kernel import MarkingKernel
from repro.obs import names
from repro.obs.tracer import current_tracer

__all__ = ["stubborn_enabled_mask"]


def stubborn_enabled_mask(
    kernel: MarkingKernel,
    bits: int,
    enabled_mask: int,
) -> list[int]:
    """The enabled part of the chosen stubborn set, from bitmasks.

    ``enabled_mask`` must be the exact enabled set of ``bits``.  Returns
    the transitions to fire from this state, ascending; empty iff the
    marking is a deadlock.  This is the hot-path form the kernel explorer
    calls per expanded marking.
    """
    if not enabled_mask:
        return []
    tracer = current_tracer()
    if tracer.enabled:
        # Per-marking span; only taken when tracing is on, so the bare
        # hot path costs one attribute check.
        with tracer.span(
            names.SPAN_STUBBORN_SET, enabled=enabled_mask.bit_count()
        ) as sp:
            fired = _enabled_part(kernel, bits, enabled_mask)
            sp.set(fired=len(fired))
            return fired
    return _enabled_part(kernel, bits, enabled_mask)


def _enabled_part(
    kernel: MarkingKernel,
    bits: int,
    enabled_mask: int,
) -> list[int]:
    """Close from every enabled seed; fire the smallest enabled part.

    Trying every seed (rather than only the first) is what lets the
    explorer follow one interleaving in Figure 1 and one conflict pair at
    a time in Figure 2.  Seeds are tried in ascending transition order.
    Seeds inside an already-computed closure yield the same closure or a
    subset, so stripping each computed closure from the remaining seed
    pool (``todo &= ~chosen``) skips them.  The fired list of a closure is
    the ascending bits of ``closure & enabled_mask``; sizes are compared
    as popcounts and only the winner is materialized.
    """
    closure = kernel.stubborn_closure
    best_mask = 0
    best_count = 0
    todo = enabled_mask
    while todo:
        seed_bit = todo & -todo
        chosen = closure(bits, seed_bit, enabled_mask)
        todo &= ~chosen
        fired_mask = chosen & enabled_mask
        count = fired_mask.bit_count()
        if not best_count or count < best_count:
            best_mask = fired_mask
            best_count = count
            if count == 1:
                break
    assert best_count
    fired = []
    while best_mask:
        low = best_mask & -best_mask
        fired.append(low.bit_length() - 1)
        best_mask ^= low
    return fired
