"""Analysis utilities over complete finite prefixes.

The prefix represents every reachable marking of a safe net; these helpers
extract that information for validation and reporting:

* :func:`prefix_markings` — all markings represented by configurations of
  the prefix (exponential enumeration; intended for the test-suite's
  completeness checks on small nets);
* :func:`analyze` — prefix construction packaged as an
  :class:`~repro.analysis.stats.AnalysisResult`, reporting the prefix
  sizes as the analyzer's "state" metric and a deadlock verdict obtained
  by walking cut markings through the prefix's events.
"""

from __future__ import annotations

from collections import deque

from repro.analysis.frame import analyzer_frame
from repro.analysis.stats import (
    AnalysisResult,
    Deadline,
    DeadlockWitness,
    TimeLimitReached,
)
from repro.net.petrinet import Marking, PetriNet
from repro.obs import names
from repro.obs.tracer import current_tracer
from repro.props.ast import Invariant, Not, Property
from repro.props.compile import check_places, predicate_fn
from repro.props.eval import property_extras
from repro.search.core import abort_note
from repro.unfolding.prefix import Prefix, unfold

__all__ = ["prefix_markings", "deadlock_via_prefix", "analyze"]


def _cut_conditions(prefix: Prefix, config: frozenset[int]) -> frozenset[int]:
    """Condition indices in the cut of a configuration."""
    consumed: set[int] = set()
    for event_index in config:
        consumed.update(prefix.events[event_index].preset)
    return frozenset(
        c.index
        for c in prefix.conditions
        if (c.producer is None or c.producer in config)
        and c.index not in consumed
    )


def _cut_marking(prefix: Prefix, cut: frozenset[int]) -> Marking:
    return frozenset(prefix.conditions[c].place for c in cut)


def _enabled_events(prefix: Prefix, cut: frozenset[int]) -> list[int]:
    """Events whose whole preset lies in the cut."""
    return [
        e.index
        for e in prefix.events
        if all(b in cut for b in e.preset)
    ]


def prefix_markings(
    prefix: Prefix,
    *,
    limit: int | None = 100_000,
    deadline: Deadline | None = None,
) -> set[Marking]:
    """All markings represented by configurations of the prefix.

    Walks the occurrence net from the empty configuration, firing events
    whose presets are in the current cut; deduplicates on cuts.  By the
    completeness theorem this covers every reachable marking of the
    original net (asserted by the tests against explicit reachability).
    ``deadline`` is checked once per dequeued cut; on expiry it raises
    :class:`~repro.analysis.stats.TimeLimitReached` with the number of
    cuts seen.
    """
    initial = _cut_conditions(prefix, frozenset())
    seen_cuts: set[frozenset[int]] = {initial}
    markings: set[Marking] = {_cut_marking(prefix, initial)}
    queue: deque[frozenset[int]] = deque([initial])
    while queue:
        cut = queue.popleft()
        if deadline is not None:
            deadline.check(len(seen_cuts))
        for event_index in _enabled_events(prefix, cut):
            event = prefix.events[event_index]
            new_cut = cut - frozenset(event.preset)
            new_cut |= frozenset(
                c.index
                for c in prefix.conditions
                if c.producer == event_index
            )
            if new_cut in seen_cuts:
                continue
            seen_cuts.add(new_cut)
            markings.add(_cut_marking(prefix, new_cut))
            if limit is not None and len(seen_cuts) > limit:
                raise RuntimeError("prefix enumeration limit exceeded")
            queue.append(new_cut)
    return markings


def deadlock_via_prefix(
    net: PetriNet, prefix: Prefix, *, deadline: Deadline | None = None
) -> Marking | None:
    """A reachable dead marking found by walking the prefix, or ``None``.

    Every reachable marking is a represented cut, so checking net-level
    enabledness on each cut marking decides deadlock freedom.  (This
    validates the prefix; it is not faster than explicit search.)
    ``deadline`` bounds the walk as in :func:`prefix_markings`.
    """
    for marking in prefix_markings(prefix, deadline=deadline):
        if net.is_deadlocked(marking):
            return marking
    return None


@analyzer_frame("unfolding")
def analyze(
    net: PetriNet,
    goal_prop: Property | None,
    *,
    max_events: int | None = 10_000,
    max_seconds: float | None = None,
    want_witness: bool = True,
) -> AnalysisResult:
    """Unfold and report prefix sizes plus a deadlock verdict.

    A prefix truncated at ``max_events`` is a bounded, non-exhaustive
    result noted like a state-budget overrun.  ``prop`` evaluates a
    property over the markings the prefix represents.  Every cut of a
    prefix — even a truncated one — is a genuinely reachable marking, so
    a hit is conclusive regardless of the event budget; a miss decides
    only when the prefix is complete.
    """
    goal_fn = None
    goal_hit_holds = True
    goal_label = "goal"
    if goal_prop is not None:
        check_places(net, goal_prop)
        if isinstance(goal_prop, Invariant):
            target = Not(goal_prop.pred)
            goal_hit_holds, goal_label = False, "violation"
        else:
            target = goal_prop.pred
        goal_fn = predicate_fn(net, target)
    # One budget for the whole run: the prefix walk gets what the
    # unfolding left of it.
    deadline = Deadline.of(max_seconds)
    tracer = current_tracer()
    with tracer.span(names.SPAN_UNFOLD):
        prefix = unfold(net, max_events=max_events, max_seconds=max_seconds)
    exhaustive = max_events is None or prefix.num_events < max_events
    dead = None
    found: Marking | None = None
    enumerated = True
    timed_out = False
    with tracer.span(names.SPAN_WITNESS):
        try:
            if goal_fn is None:
                dead = (
                    deadlock_via_prefix(net, prefix, deadline=deadline)
                    if exhaustive
                    else None
                )
            else:
                try:
                    markings = prefix_markings(prefix, deadline=deadline)
                except TimeLimitReached:
                    raise
                except RuntimeError:  # the enumeration limit
                    enumerated, markings = False, set()
                for marking in markings:
                    if goal_fn(net.marking_names(marking)):
                        found = marking
                        break
        except TimeLimitReached:
            timed_out = True
    witness = None
    if goal_fn is None:
        if dead is not None and want_witness:
            witness = DeadlockWitness(marking=net.marking_names(dead), trace=())
    elif found is not None and want_witness:
        witness = DeadlockWitness(
            marking=net.marking_names(found), trace=(), label=goal_label
        )
    extras: dict[str, object] = {
        "conditions": prefix.num_conditions,
        "cutoffs": prefix.num_cutoffs,
    }
    decided = goal_fn is not None and found is not None
    if not exhaustive and not decided:
        extras[names.ABORTED] = abort_note(
            "state-budget", max_states=max_events
        )
    if goal_fn is not None:
        if found is not None:
            holds: bool | None = goal_hit_holds
        elif exhaustive and enumerated and not timed_out:
            holds = not goal_hit_holds
        else:
            holds = None
        extras.update(property_extras(goal_prop, holds))
        if not enumerated:
            extras[names.ABORTED] = "prefix enumeration limit exceeded"
    if timed_out:
        extras[names.ABORTED] = abort_note(
            "time-budget", max_seconds=max_seconds
        )
    return AnalysisResult(
        analyzer="unfolding",
        net_name=net.name,
        states=prefix.num_events,
        edges=prefix.num_conditions,
        deadlock=dead is not None,
        witness=witness,
        exhaustive=(exhaustive and not timed_out) or decided,
        extras=extras,
    )
