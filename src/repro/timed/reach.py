"""State-class graph exploration for time Petri nets.

Builds the Berthomieu-Diaz state-class graph and answers the questions the
untimed analyzers answer for plain nets: reachable markings *under timing*,
timed deadlocks, and which behaviours timing prunes relative to the
untimed skeleton (timed reachability is always a subset — asserted by the
property tests).

The breadth-first walk runs on the generic driver in
:mod:`repro.search.core`; :class:`StateClassSpace` only supplies the
state-class successor rule.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.frame import analyzer_frame
from repro.analysis.stats import AnalysisResult, DeadlockWitness
from repro.net.petrinet import Marking, PetriNet
from repro.obs import names
from repro.obs.tracer import current_tracer
from repro.props.ast import Property
from repro.props.eval import property_extras
from repro.search.core import SearchContext, abort_note, raise_if_bounded
from repro.search.core import explore as _drive
from repro.search.goals import compile_goal
from repro.search.graph import ReachabilityGraph
from repro.timed.stateclass import StateClass, fire_class, initial_class
from repro.timed.tpn import TimedPetriNet

__all__ = [
    "StateClassSpace",
    "analyze",
    "explore_classes",
    "timed_reachable_markings",
]


class StateClassSpace:
    """The Berthomieu-Diaz firing rule as a :class:`SearchSpace`.

    A class with enabled but *unfirable* transitions cannot occur (some
    enabled transition is always firable under strong semantics), so
    deadlocked classes are exactly those with no firable transition — the
    successor list is memoized per driver-visited class so the deadlock
    check and the successor hook share one computation.

    The marking half of the firing rule runs on the net's
    :class:`~repro.net.kernel.MarkingKernel` — the class's marking is
    packed once per expansion and the per-transition persistence/enabling
    tests are bitmask algebra; the state classes themselves keep their
    frozenset markings (the DBM dominates their identity anyway).
    """

    def __init__(self, tpn: TimedPetriNet) -> None:
        self.tpn = tpn
        self.kernel = tpn.net.kernel()
        self._memo_class: StateClass | None = None
        self._memo_succs: list[tuple[str, StateClass]] = []

    def _succs(self, cls: StateClass) -> list[tuple[str, StateClass]]:
        if cls is not self._memo_class:
            bits = self.kernel.encode(cls.marking)
            out: list[tuple[str, StateClass]] = []
            for t in cls.variables:
                successor = fire_class(self.tpn, cls, t, bits=bits)
                if successor is not None:
                    out.append((self.tpn.net.transitions[t], successor))
            self._memo_succs = out
            self._memo_class = cls
        return self._memo_succs

    def initial(self) -> StateClass:
        return initial_class(self.tpn)

    def is_deadlock(self, cls: StateClass) -> bool:
        return not self._succs(cls)

    def successors(
        self, cls: StateClass, ctx: SearchContext[StateClass]
    ) -> Iterable[tuple[str, StateClass]]:
        return self._succs(cls)

    def instrumentation(self) -> dict[str, object]:
        """No adapter-specific counters beyond the driver's."""
        return {}


def explore_classes(
    tpn: TimedPetriNet,
    *,
    max_classes: int | None = None,
    max_seconds: float | None = None,
) -> ReachabilityGraph[StateClass]:
    """Breadth-first construction of the state-class graph.

    Classes compare by (marking, canonical DBM); on bounded nets with
    integer intervals the graph is finite.  Raises on budget overruns like
    the untimed ``explore``; ``analyze`` uses the driver's partial results
    instead.
    """
    outcome = _drive(
        StateClassSpace(tpn),
        order="bfs",
        max_states=max_classes,
        max_seconds=max_seconds,
    )
    raise_if_bounded(outcome, max_states=max_classes, max_seconds=max_seconds)
    return outcome.graph


def timed_reachable_markings(
    tpn: TimedPetriNet,
    *,
    max_classes: int | None = None,
    max_seconds: float | None = None,
) -> set[Marking]:
    """Markings reachable when the timing constraints are respected."""
    graph = explore_classes(
        tpn, max_classes=max_classes, max_seconds=max_seconds
    )
    return {cls.marking for cls in graph.states()}


def _skeleton(subject: TimedPetriNet | PetriNet) -> PetriNet:
    return subject.net if isinstance(subject, TimedPetriNet) else subject


@analyzer_frame("timed", net_of=_skeleton)
def analyze(
    subject: TimedPetriNet | PetriNet,
    goal_prop: Property | None,
    *,
    max_classes: int | None = None,
    max_seconds: float | None = None,
) -> AnalysisResult:
    """Timed deadlock analysis packaged like the untimed analyzers.

    ``subject`` is a :class:`TimedPetriNet`; a plain net is analyzed as
    its :meth:`~TimedPetriNet.untimed` wrapper, whose state classes are
    exactly the skeleton's reachable markings.
    ``states`` counts state classes; ``extras["markings"]`` counts the
    distinct markings they cover.  A witness trace is a firing sequence
    of the state-class graph (feasible under some timing of the delays).
    Budget overruns are absorbed into a bounded, non-exhaustive result.
    The safety certificate is the underlying untimed net's (timing
    restricts, never extends, reachability).

    ``prop`` asks a property question over *timed-reachable* markings: a
    goal observer projects each state class onto its marking, so
    ``reachable(p)`` means "some class whose marking satisfies ``p`` is
    reachable under the timing constraints".
    """
    tpn = (
        subject
        if isinstance(subject, TimedPetriNet)
        else TimedPetriNet.untimed(subject)
    )
    space = StateClassSpace(tpn)
    goal = None
    observers: tuple[object, ...] = ()
    if goal_prop is not None:
        goal = compile_goal(
            tpn.net, goal_prop, marking_of=lambda cls: cls.marking
        )
        observers = (goal.observer,)
    outcome = _drive(
        space,
        order="bfs",
        max_states=max_classes,
        max_seconds=max_seconds,
        observers=observers,
    )
    graph = outcome.graph
    witness = None
    tracer = current_tracer()
    if goal is not None:
        if goal.hit:
            with tracer.span(names.SPAN_WITNESS):
                witness = goal.witness(tpn.net, graph)
    elif graph.deadlocks:
        target = next(iter(graph.deadlocks))
        with tracer.span(names.SPAN_WITNESS):
            path = graph.path_to(target) or []
            witness = DeadlockWitness(
                marking=tpn.net.marking_names(target.marking),
                trace=tuple(label for label, _ in path),
            )
    markings = {cls.marking for cls in graph.states()}
    extras: dict[str, object] = {"markings": len(markings)}
    extras.update(outcome.stats.as_extras())
    note = abort_note(
        outcome.stop_reason, max_states=max_classes, max_seconds=max_seconds
    )
    if note is not None and not (goal is not None and goal.hit):
        extras[names.ABORTED] = note
    if goal is not None:
        extras.update(
            property_extras(goal_prop, goal.holds(outcome.exhaustive))
        )
    return AnalysisResult(
        analyzer="timed",
        net_name=tpn.net.name,
        states=graph.num_states,
        edges=graph.num_edges,
        deadlock=bool(graph.deadlocks) if goal is None else False,
        witness=witness,
        exhaustive=outcome.exhaustive or (goal is not None and goal.hit),
        extras=extras,
    )
