"""Discovery trees of explored state spaces.

A :class:`ReachabilityGraph` stores the states discovered by any explorer
driven through :mod:`repro.search.core` (full, stubborn-set reduced,
generalized partial-order, timed state classes — each with its own state
type) as the search's *discovery tree*: every state but the initial one
keeps the index of the state it was first reached from and the label of
that edge.  Edges into already-stored states are only counted, so the
store costs one parent index and one label reference per state instead
of one tuple per edge.  The tree is all a counterexample trace needs
(:meth:`ReachabilityGraph.path_to` walks it in O(depth)); readers that
want every edge of a full graph recompute them from the stored markings
(:func:`repro.analysis.reachability.fired_edges`).

States may be any hashable objects; for the classical analyzers they are
``frozenset`` markings.
"""

from __future__ import annotations

from typing import Callable, Generic, Hashable, Iterator, TypeVar

__all__ = ["ReachabilityGraph"]

S = TypeVar("S", bound=Hashable)
R = TypeVar("R", bound=Hashable)


class ReachabilityGraph(Generic[S]):
    """A rooted discovery tree over hashable states, plus an edge count.

    ``num_edges`` counts every edge the search generated, tree edges and
    edges into already-stored states alike (parallel edges with distinct
    labels count separately).
    """

    def __init__(self, initial: S) -> None:
        self.initial: S = initial
        self._index: dict[S, int] = {initial: 0}
        self._states: list[S] = [initial]
        self._parents: list[int] = [-1]
        self._labels: list[str] = [""]
        self.num_edges = 0
        self.deadlocks: set[S] = set()

    # ------------------------------------------------------------------
    def __contains__(self, state: S) -> bool:
        return state in self._index

    def __len__(self) -> int:
        return len(self._states)

    @property
    def num_states(self) -> int:
        """Number of distinct states."""
        return len(self._states)

    def states(self) -> Iterator[S]:
        """Iterate states in discovery order (initial state first)."""
        return iter(self._states)

    def index_of(self, state: S) -> int:
        """Index of an already-stored state (KeyError when missing)."""
        return self._index[state]

    def raw_index(self) -> dict[S, int]:
        """The state→index mapping itself.

        The search driver and the kernel spaces probe it once per
        successor.  Treat the mapping as read-only.
        """
        return self._index

    def insert_new(self, state: S, parent: int, label: str) -> int:
        """Store a state known to be absent, first reached from the state
        at index ``parent`` by an edge labelled ``label``; returns its
        new index."""
        index = len(self._states)
        self._index[state] = index
        self._states.append(state)
        self._parents.append(parent)
        self._labels.append(label)
        return index

    def mark_deadlock(self, state: S) -> None:
        """Record the stored ``state`` as a deadlock."""
        self.deadlocks.add(state)

    # ------------------------------------------------------------------
    def map_states(self, fn: Callable[[S], R]) -> "ReachabilityGraph[R]":
        """Structure-preserving state translation (e.g. int → frozenset).

        Returns a new graph with every state replaced by ``fn(state)``,
        keeping discovery order, the tree (by index — structure is
        preserved even if ``fn`` were non-injective), the edge count and
        the deadlock markings.  This is the decode boundary for explorers
        that carry packed integer markings internally
        (:mod:`repro.net.kernel`) but report classical-marking graphs.
        """
        mapped: ReachabilityGraph[R] = ReachabilityGraph(fn(self.initial))
        for state in self._states[1:]:
            translated = fn(state)
            mapped._index[translated] = len(mapped._states)
            mapped._states.append(translated)
        mapped._parents = list(self._parents)
        mapped._labels = list(self._labels)
        mapped.num_edges = self.num_edges
        mapped.deadlocks = {fn(state) for state in self.deadlocks}
        return mapped

    def path_to(self, goal: S) -> list[tuple[str, S]] | None:
        """The discovery path from the initial state to ``goal``.

        Returns ``[(label, state), ...]`` ending at ``goal``, the empty list
        when ``goal`` is the initial state, or ``None`` when ``goal`` was
        never stored.  Under breadth-first search this is a shortest path
        (the first edge into each state wins).  Used for counterexample
        traces.
        """
        node = self._index.get(goal)
        if node is None:
            return None
        parents = self._parents
        labels = self._labels
        states = self._states
        path: list[tuple[str, S]] = []
        while node > 0:
            path.append((labels[node], states[node]))
            node = parents[node]
        path.reverse()
        return path

    def __repr__(self) -> str:
        return (
            f"ReachabilityGraph(states={self.num_states}, "
            f"edges={self.num_edges}, deadlocks={len(self.deadlocks)})"
        )
