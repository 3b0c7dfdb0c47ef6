"""Witness records and trace extraction over explored graphs.

Every analyzer reports counterexamples as :class:`DeadlockWitness` values;
:func:`extract_witness` recovers the shortest trace to a recorded deadlock
from any explored :class:`~repro.search.graph.ReachabilityGraph` whose
states are classical markings.  The full and stubborn-set explorers and
the unfolding's cut walk share this single implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, TypeVar

from repro.search.graph import ReachabilityGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.net.petrinet import Marking, PetriNet

__all__ = ["DeadlockWitness", "extract_witness", "state_witness"]


@dataclass(frozen=True)
class DeadlockWitness:
    """A concrete witness marking plus a firing trace reaching it.

    ``marking`` holds place *names*; ``trace`` holds transition names from
    the initial marking.  For GPN analysis the trace steps may be sets of
    simultaneously fired transitions rendered as ``{a,b}``.  ``label``
    names what the marking witnesses (a deadlock by default; property
    goals and the ``safe`` walk reuse the type for their witnesses).
    """

    marking: frozenset[str]
    trace: tuple[str, ...]
    label: str = "deadlock"

    def __str__(self) -> str:
        marking = "{" + ", ".join(sorted(self.marking)) + "}"
        if not self.trace:
            # An empty trace does not imply the initial marking: symbolic
            # analysis and reduction back-mapping report trace-less
            # witnesses for arbitrary reachable markings.
            return f"{self.label} at marking {marking}"
        return f"{self.label} at {marking} via " + " ; ".join(self.trace)


S = TypeVar("S", bound=Hashable)


def extract_witness(
    net: "PetriNet",
    graph: "ReachabilityGraph[S]",
    *,
    decode: "Callable[[S], Marking] | None" = None,
) -> DeadlockWitness | None:
    """Shortest trace to some deadlock state in an explored graph.

    Graph states are classical markings by default; explorers carrying
    packed integer markings pass their kernel's ``decode`` so the witness
    crosses back to the frozenset representation here, at the report
    boundary.  The deadlock with the shallowest discovery path wins, ties
    broken on discovery order (not ``deadlocks``-set iteration order), so
    the kernel explorers and a frozenset reference extract the *same*
    witness from their byte-identical graphs.  Under breadth-first search
    the discovery path is a shortest path.
    """
    if not graph.deadlocks:
        return None
    paths = {dead: graph.path_to(dead) or [] for dead in graph.deadlocks}
    state = min(paths, key=lambda dead: (len(paths[dead]), graph.index_of(dead)))
    path = paths[state]
    marking = decode(state) if decode is not None else state
    return DeadlockWitness(
        marking=net.marking_names(marking),
        trace=tuple(label for label, _ in path),
    )


def state_witness(
    net: "PetriNet",
    graph: "ReachabilityGraph[S]",
    state: S,
    *,
    decode: "Callable[[S], Marking] | None" = None,
    label: str = "goal",
) -> DeadlockWitness | None:
    """Discovery trace to one specific explored state.

    The property layer's goal observers use this to turn the state that
    decided a ``reachable``/``invariant`` question into a replayable
    trace, with the same decode-at-the-boundary convention as
    :func:`extract_witness`.
    """
    path = graph.path_to(state)
    if path is None:
        return None
    marking = decode(state) if decode is not None else state
    return DeadlockWitness(
        marking=net.marking_names(marking),
        trace=tuple(step for step, _ in path),
        label=label,
    )
