"""Full (conventional) reachability analysis — paper Section 2.2.

Explicit enumeration of every reachable marking under the interleaving
semantics.  This is the "States" column of Table 1 and the baseline against
which every reduction is validated: the property tests check that the
stubborn-set explorer preserves deadlocks, that the symbolic engine computes
exactly this state set, and that GPO's scenario mapping stays inside it.

Since the search-core refactor this module is a thin
:class:`~repro.search.core.SearchSpace` adapter over the generic driver in
:mod:`repro.search.core`.  :class:`KernelMarkingSpace` runs on packed
integer markings from :class:`repro.net.kernel.MarkingKernel`, one fused
enable-and-fire pass per state, with incremental enabled-set maintenance
(only transitions touching the fired preset/postset are re-tested).
Graphs are decoded to classical frozenset markings at the report
boundary.  The differential test-suite holds the kernel to the
frozenset rules of :class:`~repro.net.petrinet.PetriNet` through an
independent oracle space (``tests/oracle.py``).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.analysis.frame import analyzer_frame
from repro.analysis.stats import AnalysisResult
from repro.net.petrinet import Marking, PetriNet
from repro.obs import names
from repro.obs.tracer import current_tracer
from repro.props.ast import Property
from repro.props.eval import property_extras
from repro.search.core import (
    SearchContext,
    abort_note,
    raise_if_bounded,
)
from repro.search.core import explore as _drive
from repro.search.goals import compile_goal
from repro.search.graph import ReachabilityGraph
from repro.search.witness import extract_witness

__all__ = [
    "KernelMarkingSpace",
    "analyze",
    "dead_transitions",
    "explore",
    "extract_witness",
    "fired_edges",
    "reachable_markings",
]


class KernelMarkingSpace:
    """The full interleaving semantics as a :class:`SearchSpace`.

    States are ``int`` bitmasks.  Each frontier state's enabled set is
    kept as a transition bitmask in ``_enabled_masks``; a successor's mask
    is derived from its predecessor's by re-testing only the transitions
    whose preset touches the fired transition's preset/postset
    (``kernel.affected``), which turns the per-state enabling cost from
    O(|T|·|preset|) into O(affected).  A state's mask is dropped when the
    state is expanded and derived only for successors the search has not
    stored yet, so the dict never holds more than the frontier.
    """

    def __init__(self, net: PetriNet) -> None:
        self.net = net
        self.kernel = net.kernel()
        self._enabled_masks: dict[int, int] = {
            self.kernel.initial: self.kernel.enabled_mask(self.kernel.initial)
        }

    def decode(self, bits: int) -> Marking:
        """Frozenset view of a packed state (report boundary)."""
        return self.kernel.decode(bits)

    def initial(self) -> int:
        return self.kernel.initial

    def is_deadlock(self, bits: int) -> bool:
        return not self._enabled_masks[bits]

    def successors(
        self, bits: int, ctx: SearchContext[int]
    ) -> list[tuple[str, int]]:
        kernel = self.kernel
        labels = self.net.transitions
        masks = self._enabled_masks
        stored = ctx.graph.raw_index()
        clear_mask = kernel.clear_mask
        post_mask = kernel.post_mask
        update = kernel.update_enabled_mask
        out: list[tuple[str, int]] = []
        enabled = mask = masks.pop(bits)
        while mask:
            low = mask & -mask
            mask ^= low
            t = low.bit_length() - 1
            cleared = bits & clear_mask[t]
            post = post_mask[t]
            if cleared & post:
                kernel.fire_enabled(t, bits)  # raises UnsafeNetError
            successor = cleared | post
            if successor not in stored:
                masks[successor] = update(enabled, t, successor)
            out.append((labels[t], successor))
        return out

    def instrumentation(self) -> dict[str, object]:
        """No adapter-specific counters beyond the driver's."""
        return {}


def explore(
    net: PetriNet,
    *,
    max_states: int | None = None,
    max_seconds: float | None = None,
    stop_at_first_deadlock: bool = False,
) -> ReachabilityGraph[Marking]:
    """Build the full reachability graph RG(N) by breadth-first search.

    Raises :class:`ExplorationLimitReached` when ``max_states`` would be
    exceeded and :class:`TimeLimitReached` when ``max_seconds`` of wall
    time pass; with ``stop_at_first_deadlock`` the search returns as soon
    as one deadlocked marking is recorded (useful for big deadlocking
    instances).  ``analyze`` uses the driver's partial results instead of
    these exceptions.  The exploration runs on packed integers; the
    returned graph is decoded to classical frozenset markings.
    """
    space = KernelMarkingSpace(net)
    outcome = _drive(
        space,
        order="bfs",
        max_states=max_states,
        max_seconds=max_seconds,
        stop_at_first_deadlock=stop_at_first_deadlock,
    )
    raise_if_bounded(outcome, max_states=max_states, max_seconds=max_seconds)
    return outcome.graph.map_states(space.decode)


def reachable_markings(
    net: PetriNet,
    *,
    max_states: int | None = None,
    max_seconds: float | None = None,
) -> set[Marking]:
    """The set of reachable markings explored depth-first."""
    space = KernelMarkingSpace(net)
    outcome = _drive(
        space,
        order="dfs",
        max_states=max_states,
        max_seconds=max_seconds,
    )
    raise_if_bounded(outcome, max_states=max_states, max_seconds=max_seconds)
    return {space.decode(bits) for bits in outcome.graph.states()}


def dead_transitions(
    net: PetriNet, *, max_states: int | None = None
) -> list[str]:
    """Transitions enabled in no marking of the full reachability graph.

    These never fire in any reachable marking: the net is L1-live
    (quasi-live) exactly when the list is empty.
    """
    space = KernelMarkingSpace(net)
    outcome = _drive(space, order="bfs", max_states=max_states)
    raise_if_bounded(outcome, max_states=max_states, max_seconds=None)
    enabled_mask = space.kernel.enabled_mask
    live = 0
    for bits in outcome.graph.states():
        live |= enabled_mask(bits)
    return [
        name for t, name in enumerate(net.transitions) if not live >> t & 1
    ]


def fired_edges(
    net: PetriNet, markings: Iterable[Marking]
) -> Iterator[tuple[Marking, str, Marking]]:
    """Every ``(source, label, target)`` edge out of ``markings``.

    Fires each enabled transition of each marking, markings in the given
    order and transitions in index order: over the states of a full
    reachability graph this is its edge relation in the order the search
    generated it.  The graph itself stores only its discovery tree; DOT
    export recomputes the edges here.
    """
    transitions = net.transitions
    for marking in markings:
        for t, successor in net.successors(marking):
            yield marking, transitions[t], successor


@analyzer_frame("full")
def analyze(
    net: PetriNet,
    goal_prop: Property | None,
    *,
    max_states: int | None = None,
    max_seconds: float | None = None,
) -> AnalysisResult:
    """Run full reachability analysis and package an :class:`AnalysisResult`.

    Budget overruns (state or wall-clock) are absorbed into a bounded,
    non-exhaustive result carrying the real progress made — the driver
    returns the partial graph directly, nothing is re-explored.

    ``prop`` asks a property question instead of the default deadlock
    one: ``reachable(p)`` / ``invariant(p)`` compile to a goal observer
    that terminates the search at the first deciding state; compound
    properties decompose into per-leaf runs.  The verdict lands in
    ``extras["property_holds"]``; ``prop=None`` (and the plain
    ``deadlock`` property) keeps the historical output byte-identical.
    """
    space = KernelMarkingSpace(net)
    goal = None
    observers: tuple[object, ...] = ()
    if goal_prop is not None:
        goal = compile_goal(net, goal_prop, marking_of=space.decode)
        observers = (goal.observer,)
    outcome = _drive(
        space,
        order="bfs",
        max_states=max_states,
        max_seconds=max_seconds,
        observers=observers,
    )
    graph = outcome.graph
    witness = None
    tracer = current_tracer()
    if goal is not None:
        if goal.hit:
            with tracer.span(names.SPAN_WITNESS):
                witness = goal.witness(net, graph)
    elif graph.deadlocks:
        with tracer.span(names.SPAN_WITNESS):
            witness = extract_witness(net, graph, decode=space.decode)
    extras = outcome.stats.as_extras()
    extras.update(space.instrumentation())
    note = abort_note(
        outcome.stop_reason, max_states=max_states, max_seconds=max_seconds
    )
    if note is not None and not (goal is not None and goal.hit):
        extras[names.ABORTED] = note
    if goal is not None:
        # A goal hit decides the question even though the search
        # stopped early; report the verdict as the exhaustiveness of
        # the *answer*, not of the state enumeration.
        holds = goal.holds(outcome.exhaustive)
        extras.update(property_extras(goal_prop, holds))
    return AnalysisResult(
        analyzer="full",
        net_name=net.name,
        states=graph.num_states,
        edges=graph.num_edges,
        deadlock=bool(graph.deadlocks) if goal is None else False,
        witness=witness,
        exhaustive=outcome.exhaustive or (goal is not None and goal.hit),
        extras=extras,
    )
