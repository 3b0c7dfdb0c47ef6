"""Structural analysis of safe Petri nets.

Implements the static notions the paper builds on:

* the *conflict* relation of Definition 2.2:
  ``conflict(t, u) ≡ •t ∩ •u ≠ ∅``;
* *maximal conflict(ing) sets* (MCSs), also from Definition 2.2: sets of
  transitions closed under the conflict relation such that no transition
  outside the set conflicts with a member.  These are exactly the connected
  components of the conflict graph;
* *conflict places* — places with more than one output transition, i.e. the
  places that encode choice and cause the second source of state explosion
  the paper attacks;
* independence of transitions (used by the stubborn-set baseline).

All functions are pure and operate on integer node indices.  The
:class:`StructuralInfo` class memoizes the full analysis for a net so the
explorers can query it in O(1).
"""

from __future__ import annotations

from typing import Sequence

from repro.net.petrinet import PetriNet

__all__ = [
    "conflict",
    "conflict_graph",
    "connected_components",
    "maximal_conflict_sets",
    "conflict_places",
    "are_independent",
    "StructuralInfo",
]


def conflict(net: PetriNet, t: int, u: int) -> bool:
    """Definition 2.2: two transitions conflict iff they share input places.

    Note that under this definition every transition conflicts with itself
    (``•t ∩ •t = •t ≠ ∅``); callers interested in *distinct* conflicting
    pairs must compare indices themselves.
    """
    return bool(net.pre_places[t] & net.pre_places[u])


def conflict_graph(net: PetriNet) -> list[set[int]]:
    """Adjacency sets of the conflict graph over transition indices.

    Vertices are transitions; there is an (undirected) edge between two
    *distinct* transitions iff they share an input place.  Self-loops are
    omitted.  Built in O(|F| + edges) by bucketing transitions per place.
    """
    adjacency: list[set[int]] = [set() for _ in net.transitions]
    for p in range(net.num_places):
        consumers = sorted(net.post_transitions[p])
        for i, t in enumerate(consumers):
            for u in consumers[i + 1 :]:
                adjacency[t].add(u)
                adjacency[u].add(t)
    return adjacency

def connected_components(
    adjacency: Sequence[set[int]] | Sequence[frozenset[int]],
) -> list[frozenset[int]]:
    """Connected components of an undirected graph given by adjacency sets.

    Isolated vertices form singleton components.  Components are returned
    sorted by smallest member so the output is deterministic.
    """
    seen: set[int] = set()
    components: list[frozenset[int]] = []
    for start in range(len(adjacency)):
        if start in seen:
            continue
        stack = [start]
        component: set[int] = set()
        while stack:
            node = stack.pop()
            if node in component:
                continue
            component.add(node)
            stack.extend(adjacency[node] - component)
        seen |= component
        components.append(frozenset(component))
    return components


def maximal_conflict_sets(net: PetriNet) -> list[frozenset[int]]:
    """Maximal conflict sets: connected components of the conflict graph.

    Definition 2.2 characterizes ``mcs(T)`` as the sets ``T'`` such that no
    transition outside ``T'`` conflicts with a member of ``T'``; the
    inclusion-minimal non-empty such sets are precisely the connected
    components of the conflict graph.  A transition with no conflicts forms
    a singleton MCS.  Components are returned sorted by smallest member so
    the output is deterministic.
    """
    return connected_components(conflict_graph(net))


def conflict_places(net: PetriNet) -> frozenset[int]:
    """Places with two or more output transitions (the choice places)."""
    return frozenset(
        p
        for p in range(net.num_places)
        if len(net.post_transitions[p]) >= 2
    )


def are_independent(net: PetriNet, t: int, u: int) -> bool:
    """Structural independence test used by partial-order reduction.

    Two distinct transitions are independent when they neither conflict
    (share input places) nor touch each other's neighborhood in a way that
    can change enabledness: ``t`` writing into ``•u`` can only *enable*
    ``u``, which is harmless for deadlock detection, but sharing an input
    place means one can disable the other.  For safe nets we additionally
    treat output-output sharing as dependent, because simultaneous firing
    order then matters for safety violations.
    """
    if t == u:
        return False
    if net.pre_places[t] & net.pre_places[u]:
        return False
    if net.post_places[t] & net.post_places[u]:
        return False
    return True


class StructuralInfo:
    """Memoized structural facts about a net.

    The explorers query conflicts, MCS membership and producer sets in
    inner loops; this class computes everything once.

    >>> from repro.models.figures import conflict_pairs_net
    >>> info = StructuralInfo(conflict_pairs_net(2))
    >>> len(info.mcs_list)
    2
    """

    __slots__ = (
        "net",
        "adjacency",
        "mcs_list",
        "mcs_of",
        "conflict_place_set",
        "conflicting_pairs",
    )

    def __init__(self, net: PetriNet) -> None:
        self.net = net
        self.adjacency = conflict_graph(net)
        self.mcs_list = connected_components(self.adjacency)
        self.mcs_of: dict[int, int] = {}
        for index, component in enumerate(self.mcs_list):
            for t in component:
                self.mcs_of[t] = index
        self.conflict_place_set = conflict_places(net)
        self.conflicting_pairs: list[tuple[int, int]] = [
            (t, u)
            for t in range(net.num_transitions)
            for u in sorted(self.adjacency[t])
            if t < u
        ]

    def conflicters(self, t: int) -> set[int]:
        """Distinct transitions in conflict with ``t``."""
        return self.adjacency[t]

    def mcs(self, t: int) -> frozenset[int]:
        """The maximal conflict set containing ``t``."""
        return self.mcs_list[self.mcs_of[t]]

    def producers(self, place: int) -> frozenset[int]:
        """Transitions that output into ``place`` (``•p``)."""
        return self.net.pre_transitions[place]

    def nontrivial_mcs(self) -> list[frozenset[int]]:
        """MCSs with at least two transitions (real choice structure)."""
        return [c for c in self.mcs_list if len(c) > 1]

    def transitions_in_conflict(self) -> frozenset[int]:
        """All transitions that participate in at least one conflict."""
        return frozenset(
            t for t in range(self.net.num_transitions) if self.adjacency[t]
        )

