"""Analysis over complete finite prefixes, on the generic search driver.

The prefix represents every reachable marking of a safe net: every
configuration's cut is a reachable marking, and a complete prefix has a
configuration for each.  This module walks the configurations as a
:class:`~repro.search.core.SearchSpace` over packed cuts
(:class:`CutSpace`) with the same budgeted driver the explicit analyzers
use:

* :func:`deadlock_via_prefix` — the deadlock question: the walk stops at
  the first dead cut and returns its firing-sequence witness;
* :func:`prefix_markings` — the walk run to exhaustion, decoded to the
  distinct markings (the completeness checks compare it with explicit
  reachability);
* :func:`analyze` — prefix construction plus either walk, packaged as an
  :class:`~repro.analysis.stats.AnalysisResult` reporting the prefix
  sizes as the analyzer's "state" metric.

A cut's witness trace is its breadth-first path of events, written as
transition names: a classical firing sequence of the original net.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.analysis.frame import analyzer_frame
from repro.analysis.stats import (
    AnalysisResult,
    Deadline,
    DeadlockWitness,
    ExplorationLimitReached,
    TimeLimitReached,
)
from repro.net.petrinet import Marking, PetriNet
from repro.obs import names
from repro.obs.tracer import current_tracer
from repro.props.ast import Property
from repro.props.compile import check_places
from repro.props.eval import property_extras
from repro.search.core import SearchContext, abort_note, raise_if_bounded
from repro.search.core import explore as _drive
from repro.search.goals import PropertyGoal, compile_goal
from repro.search.graph import ReachabilityGraph
from repro.search.witness import extract_witness
from repro.unfolding.prefix import Prefix, unfold

__all__ = [
    "CUT_LIMIT",
    "CutSpace",
    "prefix_markings",
    "deadlock_via_prefix",
    "analyze",
]

#: Cuts a prefix walk may store before it gives up (the driver's
#: ``max_states``): a complete prefix can have exponentially many cuts.
CUT_LIMIT = 100_000

#: ``extras["aborted"]`` of a walk stopped by :data:`CUT_LIMIT`.
LIMIT_NOTE = "prefix enumeration limit exceeded"


class CutSpace:
    """The configurations of a prefix as a :class:`SearchSpace`.

    States are ``int`` condition bitmasks (bit ``c`` = condition ``c``
    lies on the cut).  Per event, one table row built once per prefix:
    its preset and postset condition masks, the clear mask of the places
    it consumes, the mask of the places it produces, its transition
    name, and what firing it does to the enabled events.  An event is
    enabled at a cut holding its whole preset, and firing it replaces
    the preset by the postset: every event consuming a preset condition
    is disabled, and only events consuming a postset condition can
    become enabled.  So each frontier cut's enabled events are kept as a
    mask derived from its parent's by re-testing just the latter, and
    dropped when the cut is expanded.  Each cut's place-bitmask marking
    is derived from its parent's marking when the cut is first
    generated, so the deadlock test is a kernel check on ints.
    """

    def __init__(self, prefix: Prefix) -> None:
        net = prefix.net
        self.kernel = kernel = net.kernel()
        initial = 0
        postsets = [0] * prefix.num_events
        produced: list[list[int]] = [[] for _ in prefix.events]
        for condition in prefix.conditions:
            if condition.producer is None:
                initial |= 1 << condition.index
            else:
                postsets[condition.producer] |= 1 << condition.index
                produced[condition.producer].append(condition.index)
        presets = [0] * prefix.num_events
        consumers: list[list[int]] = [[] for _ in prefix.conditions]
        for event in prefix.events:
            for condition_index in event.preset:
                presets[event.index] |= 1 << condition_index
                consumers[condition_index].append(event.index)
        rows = []
        for event in prefix.events:
            # Firing disables every consumer of a preset condition; only
            # consumers of a postset condition can become enabled, so
            # those are the ``(bit, preset)`` pairs to re-test.
            disabled = {f for c in event.preset for f in consumers[c]}
            gained = {
                f for c in produced[event.index] for f in consumers[c]
            } - disabled
            t = event.transition
            rows.append(
                (
                    presets[event.index],
                    postsets[event.index],
                    kernel.clear_mask[t],
                    kernel.post_mask[t],
                    net.transitions[t],
                    ~sum(1 << f for f in disabled),
                    tuple((1 << f, presets[f]) for f in sorted(gained)),
                )
            )
        self._events = tuple(rows)
        self._initial = initial
        self._markings: dict[int, int] = {
            initial: kernel.encode(net.initial_marking)
        }
        self._enabled: dict[int, int] = {
            initial: sum(
                1 << index
                for index, preset in enumerate(presets)
                if initial & preset == preset
            )
        }

    def initial(self) -> int:
        return self._initial

    def is_deadlock(self, cut: int) -> bool:
        return self.kernel.is_deadlocked(self._markings[cut])

    def successors(
        self, cut: int, ctx: SearchContext[int]
    ) -> list[tuple[str, int]]:
        markings = self._markings
        masks = self._enabled
        stored = ctx.graph.raw_index()
        events = self._events
        marking = markings[cut]
        enabled = mask = masks.pop(cut)
        out: list[tuple[str, int]] = []
        while mask:
            low = mask & -mask
            mask ^= low
            preset, postset, clear, post, label, keep, retest = events[
                low.bit_length() - 1
            ]
            successor = (cut ^ preset) | postset
            if successor not in stored:
                markings[successor] = (marking & clear) | post
                derived = enabled & keep
                for bit, other in retest:
                    if successor & other == other:
                        derived |= bit
                masks[successor] = derived
            out.append((label, successor))
        return out

    def marking_of(self, cut: int) -> Marking:
        """Frozenset marking of a generated cut (report boundary)."""
        return self.kernel.decode(self._markings[cut])

    def markings(self) -> set[Marking]:
        """The distinct markings of every cut generated so far."""
        return {self.kernel.decode(bits) for bits in set(self._markings.values())}


def _walk(
    space: CutSpace,
    *,
    limit: int | None = CUT_LIMIT,
    deadline: Deadline | None = None,
    observers: Sequence[Any] = (),
    stop_at_first_deadlock: bool = False,
) -> ReachabilityGraph[int]:
    """Breadth-first walk of ``space``; raises on either budget.

    ``limit`` bounds the stored cuts (:class:`ExplorationLimitReached`);
    ``deadline`` gives the walk what is left of its time budget
    (:class:`TimeLimitReached`).  Both carry the number of cuts stored.
    """
    outcome = _drive(
        space,
        order="bfs",
        max_states=limit,
        max_seconds=None if deadline is None else deadline.remaining(),
        observers=observers,
        stop_at_first_deadlock=stop_at_first_deadlock,
    )
    raise_if_bounded(
        outcome,
        max_states=limit,
        max_seconds=None if deadline is None else deadline.seconds,
    )
    return outcome.graph


def prefix_markings(
    prefix: Prefix,
    *,
    limit: int | None = CUT_LIMIT,
    deadline: Deadline | None = None,
) -> set[Marking]:
    """All markings represented by configurations of the prefix.

    Walks the cuts to exhaustion and decodes their distinct markings.
    By the completeness theorem this covers every reachable marking of
    the original net (asserted by the tests against explicit
    reachability).  More than ``limit`` cuts raise
    :class:`~repro.analysis.stats.ExplorationLimitReached`; an expired
    ``deadline`` (checked once per dequeued cut) raises
    :class:`~repro.analysis.stats.TimeLimitReached`.
    """
    space = CutSpace(prefix)
    _walk(space, limit=limit, deadline=deadline)
    return space.markings()


def deadlock_via_prefix(
    net: PetriNet, prefix: Prefix, *, deadline: Deadline | None = None
) -> DeadlockWitness | None:
    """A reachable dead marking and the events reaching it, or ``None``.

    Every reachable marking is the marking of some cut, so checking
    net-level enabledness on each cut decides deadlock freedom on a
    complete prefix.  The walk stops at the first dead cut; its witness
    trace is the shortest event path to it.  Budgets raise as in
    :func:`prefix_markings`.
    """
    space = CutSpace(prefix)
    graph = _walk(space, deadline=deadline, stop_at_first_deadlock=True)
    return extract_witness(net, graph, decode=space.marking_of)


@analyzer_frame("unfolding")
def analyze(
    net: PetriNet,
    goal_prop: Property | None,
    *,
    max_events: int | None = 10_000,
    max_seconds: float | None = None,
) -> AnalysisResult:
    """Unfold and report prefix sizes plus a deadlock verdict.

    A prefix truncated at ``max_events`` is a bounded, non-exhaustive
    result noted like a state-budget overrun; the deadlock walk then does
    not run.  ``prop`` walks the cuts with a compiled goal that stops at
    the first deciding cut.  Every cut of a prefix — even a truncated
    one — is a genuinely reachable marking, so a hit is conclusive
    regardless of the event budget; a miss decides only when the prefix
    is complete and the walk exhaustive.  A walk stopped by
    :data:`CUT_LIMIT` or the time budget withholds the verdict.
    """
    if goal_prop is not None:
        # Unknown places fail before the unfolding is paid for.
        check_places(net, goal_prop)
    # One budget for the whole run: the walk gets what the unfolding
    # left of it.
    deadline = Deadline.of(max_seconds)
    tracer = current_tracer()
    with tracer.span(names.SPAN_UNFOLD):
        prefix = unfold(net, max_events=max_events, max_seconds=max_seconds)
    complete = max_events is None or prefix.num_events < max_events
    note = (
        None if complete else abort_note("state-budget", max_states=max_events)
    )
    dead: DeadlockWitness | None = None
    witness: DeadlockWitness | None = None
    goal: PropertyGoal[int] | None = None
    exhaustive = False
    with tracer.span(names.SPAN_WITNESS):
        try:
            if goal_prop is None:
                if complete:
                    dead = deadlock_via_prefix(net, prefix, deadline=deadline)
                    exhaustive = True
            else:
                space = CutSpace(prefix)
                goal = compile_goal(net, goal_prop, marking_of=space.marking_of)
                graph = _walk(space, deadline=deadline, observers=(goal.observer,))
                exhaustive = complete
                if goal.hit:
                    witness = goal.witness(net, graph)
        except ExplorationLimitReached:
            note = LIMIT_NOTE
        except TimeLimitReached:
            note = abort_note("time-budget", max_seconds=max_seconds)
    if dead is not None:
        witness = dead
    decided = goal is not None and goal.hit
    extras: dict[str, object] = {
        "conditions": prefix.num_conditions,
        "cutoffs": prefix.num_cutoffs,
    }
    if note is not None and not decided:
        extras[names.ABORTED] = note
    if goal is not None:
        extras.update(property_extras(goal_prop, goal.holds(exhaustive)))
    return AnalysisResult(
        analyzer="unfolding",
        net_name=net.name,
        states=prefix.num_events,
        edges=prefix.num_conditions,
        deadlock=dead is not None,
        witness=witness,
        exhaustive=exhaustive or decided,
        extras=extras,
    )
