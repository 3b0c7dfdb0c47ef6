"""Property goals for the generic search driver.

This is where a :class:`~repro.props.ast.Property` meets the budgeted
search core: :func:`compile_goal` turns an atomic ``reachable(p)`` /
``invariant(p)`` question into a :class:`~repro.search.observers.
MarkingQueryObserver` that terminates the search at the first deciding
state — the target for a reachability question, a violation for an
invariant — plus the bookkeeping to turn the search outcome into a
three-valued verdict and a witness trace.  Every explicit explorer
(full, timed; the stubborn explorer refuses non-deadlock properties)
and the unfolding's cut walk share this one implementation, so early
termination and witness extraction behave identically across analyzers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generic, Hashable, TypeVar

from repro.props.ast import (
    Invariant,
    Not,
    Property,
    PropertyError,
    Reachable,
)
from repro.props.compile import check_places, predicate_fn
from repro.search.observers import MarkingQueryObserver
from repro.search.witness import DeadlockWitness, state_witness

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.net.petrinet import Marking, PetriNet
    from repro.search.graph import ReachabilityGraph

__all__ = ["PropertyGoal", "compile_goal"]

S = TypeVar("S", bound=Hashable)


class PropertyGoal(Generic[S]):
    """One compiled search goal: observer + verdict + witness rules.

    ``kind`` is ``"reachable"`` (stop on a state satisfying the
    predicate; a hit proves the property) or ``"invariant"`` (stop on a
    state *violating* the predicate; a hit refutes it).  A miss decides
    only when the search was exhaustive — and even then only for
    analyzers whose reduction preserves the fragment (declared in
    :mod:`repro.props.compat`).
    """

    def __init__(
        self,
        kind: str,
        observer: MarkingQueryObserver[S],
        marking_of: "Callable[[S], Marking]",
    ) -> None:
        self.kind = kind
        self.observer = observer
        self._marking_of = marking_of

    @property
    def hit(self) -> bool:
        """Did the search reach a deciding state?"""
        return self.observer.matched is not None

    @property
    def witness_label(self) -> str:
        return "goal" if self.kind == "reachable" else "violation"

    def holds(self, exhaustive: bool) -> bool | None:
        """Three-valued verdict given the search's exhaustiveness."""
        if self.kind == "reachable":
            return True if self.hit else (False if exhaustive else None)
        return False if self.hit else (True if exhaustive else None)

    def witness(
        self, net: "PetriNet", graph: "ReachabilityGraph[S]"
    ) -> DeadlockWitness | None:
        """Shortest-trace witness of the deciding state, if any."""
        if self.observer.matched is None:
            return None
        return state_witness(
            net,
            graph,
            self.observer.matched,
            decode=self._marking_of,
            label=self.witness_label,
        )


def compile_goal(
    net: "PetriNet",
    prop: Property,
    *,
    marking_of: "Callable[[S], Marking] | None" = None,
) -> PropertyGoal[S]:
    """Compile an atomic property into a search goal.

    ``marking_of`` maps a search state onto a classical marking (packed
    kernel integers pass their ``decode``; timed state classes project
    ``cls.marking``; plain marking spaces omit it).  Raises
    :class:`~repro.props.ast.PropertyError` for non-atomic properties or
    unknown places — compound properties are decomposed by
    :func:`repro.props.eval.run_property` before reaching the driver.
    """
    check_places(net, prop)
    if isinstance(prop, Reachable):
        kind, target = "reachable", prop.pred
    elif isinstance(prop, Invariant):
        kind, target = "invariant", Not(prop.pred)
    else:
        raise PropertyError(
            f"{prop.text()!r} does not compile to a search goal"
        )
    fn = predicate_fn(net, target)
    decode: "Callable[[S], Marking]" = (
        marking_of if marking_of is not None else (lambda state: state)
    )
    names = net.marking_names

    def predicate(state: S) -> bool:
        return fn(names(decode(state)))

    observer: MarkingQueryObserver[S] = MarkingQueryObserver(predicate)
    return PropertyGoal(kind, observer, decode)
