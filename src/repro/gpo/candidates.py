"""Selection of candidate MCSs and single-firing persistent sets (§3.3).

The analysis procedure prioritizes three regimes per state:

1. **candidate MCSs** — maximal sets of *conflicting, multiple-enabled*
   transitions (§2.3's "maximal set of conflicting transitions that are
   all enabled", lifted to multiple enabling): the connected components of
   the conflict graph induced on the multiple-enabled transitions.  Firing
   a candidate moves only the scenarios that *chose* each fired transition
   (Def. 3.5's ``t ∈ v`` filter), so conflicting-but-disabled transitions
   outside the candidate keep their claims: the scenarios committed to
   them stay in the input places and proceed in later states.  This is
   what lets NSDP collapse to a constant number of GPN states.

   The paper's side condition — firing a candidate must not disable any
   other multiple-enabled MCS nor any postponed single-enabled transition
   — holds structurally for these induced components: an *enabled*
   transition outside the candidate cannot share an input place with it
   (it would be in the component), and the ``r'`` update keeps every
   postponed transition's enabling family intact because that family is
   itself a term of the ``r'`` union.  The explorer still vets every
   candidate semantically before firing it
   (:func:`repro.gpo.analysis._preserves_enabled`) and falls back to
   single firing when the check fails.

2. **single-enabled MCSs** — when no candidate exists, a *full* conflict
   component all of whose members are single-enabled can be branched over
   exclusively (classical partial-order anticipation).  Single firing
   moves common histories without the choice filter, so here the
   conservative full-component condition of the paper's pseudocode
   (``T' ∈ mcs(T)``) is required: a disabled member could otherwise become
   enabled later and steal tokens along a postponed path.

3. **fallback** — branch over every single-enabled transition (no
   reduction; classical PO hits this on RW, which is exactly where regime
   1 still applies and keeps GPO at 2 states).
"""

from __future__ import annotations

from repro.families.bddfam import BddFamily
from repro.gpo.gpn import Gpn

__all__ = ["candidate_mcs", "single_enabled_mcs"]


def candidate_mcs(
    gpn: Gpn,
    multiple: dict[int, BddFamily],
) -> list[frozenset[int]]:
    """Maximal conflicting sets of multiple-enabled transitions.

    Connected components of the conflict graph induced on the keys of
    ``multiple`` (the non-empty ``m_enabled`` map from
    :func:`repro.gpo.semantics.enabled_families`).  Every multiple-enabled
    transition belongs to exactly one candidate; isolated transitions form
    singleton candidates.  Returned in deterministic order.
    """
    enabled = set(multiple)
    candidates: list[frozenset[int]] = []
    seen: set[int] = set()
    for start in sorted(enabled):
        if start in seen:
            continue
        component: set[int] = set()
        stack = [start]
        while stack:
            t = stack.pop()
            if t in component:
                continue
            component.add(t)
            stack.extend((gpn.info.adjacency[t] & enabled) - component)
        seen |= component
        candidates.append(frozenset(component))
    return candidates


def single_enabled_mcs(
    gpn: Gpn,
    single: dict[int, BddFamily],
) -> frozenset[int] | None:
    """One *full* MCS entirely single-enabled, or ``None``.

    Used by the analysis as regime 2: branch over exactly this component's
    members.  Among eligible components the smallest is chosen (fewer
    branches); ties break on the smallest member index for determinism.
    """
    enabled = set(single)
    best: frozenset[int] | None = None
    seen_components: set[int] = set()
    for t in sorted(enabled):
        component_index = gpn.info.mcs_of[t]
        if component_index in seen_components:
            continue
        seen_components.add(component_index)
        component = gpn.info.mcs_list[component_index]
        if component <= enabled:
            if best is None or (len(component), min(component)) < (
                len(best),
                min(best),
            ):
                best = component
    return best
