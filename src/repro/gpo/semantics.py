"""GPN firing semantics: Definitions 3.2, 3.3, 3.5 and 3.6 of the paper.

Two firing regimes:

* **single firing** — a transition fires on the *common history* of its
  input places (``s_enabled``); the common history moves from inputs to
  outputs without additional coloring.  This stays "in track" with the
  classical firing rule under the mapping of Def. 3.4.
* **multiple firing** — a whole set of (possibly conflicting) transitions
  fires simultaneously; each transition moves exactly the scenarios that
  *chose* it (``m_enabled``, the ``t ∈ v`` filter), and the valid family is
  re-conditioned (``∩ r'``), which prunes scenario combinations that have
  become jointly infeasible — the paper's "extended conflict" effect
  (Fig. 7: ``r2 = {{A,C},{B,D}}``).

Although GPN states are family tuples rather than packable markings, the
structure walks here run on the net's compiled
:class:`~repro.net.kernel.MarkingKernel` index tables (``pre_index``,
``pre_not_post_index``, ``consumers``, ...) and place-set membership is
tested on its bitmasks, so no per-firing frozenset algebra remains.
"""

from __future__ import annotations

from repro.families.bddfam import BddFamily
from repro.gpo.gpn import Gpn, GpnState
from repro.obs import names
from repro.obs.tracer import current_tracer

__all__ = [
    "s_enabled",
    "m_enabled",
    "single_fire",
    "multiple_fire",
    "enabled_families",
    "dead_scenarios",
]


def s_enabled(gpn: Gpn, state: GpnState, t: int) -> BddFamily:
    """Def. 3.2 — ``⋂_{p ∈ •t} m(p) ∩ r``: scenarios where ``t`` can fire."""
    inputs = [state.marking[p] for p in gpn.kernel.pre_index[t]]
    common = gpn.ctx.intersect_all(inputs)
    return common.intersect(state.valid)


def m_enabled(gpn: Gpn, state: GpnState, t: int) -> BddFamily:
    """Def. 3.5 — ``{v ∈ ⋂_{p ∈ •t} m(p) | t ∈ v}``: scenarios choosing ``t``."""
    inputs = [state.marking[p] for p in gpn.kernel.pre_index[t]]
    common = gpn.ctx.intersect_all(inputs)
    return common.filter_contains(t)


def single_fire(gpn: Gpn, state: GpnState, t: int) -> GpnState:
    """Def. 3.3 — move the common history of ``t`` from inputs to outputs.

    ``r`` is unchanged; places that are both input and output of ``t``
    (self-loops) keep their family (the "otherwise" clause).
    """
    enabled = s_enabled(gpn, state, t)
    if enabled.is_empty():
        raise ValueError(
            f"transition {gpn.transition_label(t)!r} is not single-enabled"
        )
    kernel = gpn.kernel
    marking = list(state.marking)
    for p in kernel.pre_not_post_index[t]:
        marking[p] = marking[p].difference(enabled)
    for p in kernel.post_not_pre_index[t]:
        marking[p] = marking[p].union(enabled)
    return GpnState(tuple(marking), state.valid)


def enabled_families(
    gpn: Gpn, state: GpnState
) -> tuple[dict[int, BddFamily], dict[int, BddFamily]]:
    """Per-transition ``s_enabled`` / ``m_enabled`` families, empties omitted.

    One pass computing both avoids re-intersecting input families; the
    explorer calls this once per state.
    """
    tracer = current_tracer()
    if tracer.enabled:
        with tracer.span(names.SPAN_ENABLED_FAMILIES) as span:
            single, multiple = _enabled_families(gpn, state)
            span.set(single=len(single), multiple=len(multiple))
            return single, multiple
    return _enabled_families(gpn, state)


def _enabled_families(
    gpn: Gpn, state: GpnState
) -> tuple[dict[int, BddFamily], dict[int, BddFamily]]:
    single: dict[int, BddFamily] = {}
    multiple: dict[int, BddFamily] = {}
    pre_index = gpn.kernel.pre_index
    for t in range(gpn.net.num_transitions):
        inputs = [state.marking[p] for p in pre_index[t]]
        if any(f.is_empty() for f in inputs):
            continue
        common = gpn.ctx.intersect_all(inputs)
        if common.is_empty():
            continue
        s_fam = common.intersect(state.valid)
        if not s_fam.is_empty():
            single[t] = s_fam
        m_fam = common.filter_contains(t)
        if not m_fam.is_empty():
            multiple[t] = m_fam
    return single, multiple


def multiple_fire(
    gpn: Gpn,
    state: GpnState,
    fired: frozenset[int],
    *,
    families: tuple[dict[int, BddFamily], dict[int, BddFamily]] | None = None,
) -> GpnState:
    """Def. 3.6 — fire a set of transitions simultaneously.

    ``fired`` is the union of the chosen candidate MCSs (each member must
    be multiple-enabled).  ``families`` may pass the precomputed result of
    :func:`enabled_families` for this state.
    """
    tracer = current_tracer()
    if tracer.enabled:
        with tracer.span(names.SPAN_MULTIPLE_FIRE, fired=len(fired)):
            return _multiple_fire(gpn, state, fired, families)
    return _multiple_fire(gpn, state, fired, families)


def _multiple_fire(
    gpn: Gpn,
    state: GpnState,
    fired: frozenset[int],
    families: tuple[dict[int, BddFamily], dict[int, BddFamily]] | None,
) -> GpnState:
    net = gpn.net
    if families is None:
        families = enabled_families(gpn, state)
    single, multiple = families
    for t in fired:
        if t not in multiple:
            raise ValueError(
                f"transition {gpn.transition_label(t)!r} is not "
                "multiple-enabled"
            )

    # r' = ∪_{t ∉ T'} s_enabled(t,s)  ∪  ∪_{t ∈ T'} m_enabled(t,s)
    new_valid = gpn.ctx.union_all(
        [family for t, family in single.items() if t not in fired]
        + [multiple[t] for t in fired]
    )

    kernel = gpn.kernel
    pre_bits = 0
    post_bits = 0
    for t in fired:
        pre_bits |= kernel.pre_mask[t]
        post_bits |= kernel.post_mask[t]

    marking = list(state.marking)
    for p in range(net.num_places):
        family = marking[p]
        if (pre_bits >> p) & 1:
            consumed = gpn.ctx.union_all(
                multiple[t] for t in kernel.consumers[p] if t in fired
            )
            family = family.difference(consumed)
        if (post_bits >> p) & 1:
            produced = gpn.ctx.union_all(
                multiple[t] for t in kernel.producers[p] if t in fired
            )
            family = family.union(produced)
        marking[p] = family.intersect(new_valid)
    return GpnState(tuple(marking), new_valid)


def dead_scenarios(
    gpn: Gpn,
    state: GpnState,
    single: dict[int, BddFamily] | None = None,
) -> BddFamily:
    """Scenarios in ``r`` that enable no transition (§3.3 deadlock check).

    The paper tests ``⋃_t s_enabled(t, s) ≠ r``; the returned family is the
    difference ``r \\ ⋃_t s_enabled(t, s)``, whose members map to deadlocked
    classical markings via Def. 3.4.
    """
    if single is None:
        single, _ = enabled_families(gpn, state)
    live = gpn.ctx.union_all(single.values())
    return state.valid.difference(live)
