"""Reference semantics, for differential tests only.

Every analyzer runs on the bitmask :class:`~repro.net.kernel.MarkingKernel`
and GPO runs on BDD scenario families.  This module keeps independent,
deliberately plain references to hold them to:

* **Markings.**  The spaces here run the paper's enabling and firing rules
  (Defs. 2.3–2.4) directly on frozenset markings through
  :meth:`~repro.net.petrinet.PetriNet.enabled_transitions` and
  :meth:`~repro.net.petrinet.PetriNet.fire`, so the kernel explorers must
  match them: same states in the same discovery order, same edges, same
  deadlocks, same safety verdicts.
* **Edge relations and witnesses.**  :func:`oracle_edges` and
  :func:`oracle_cut_edges` recompute, with a plain breadth-first loop of
  their own, the full, stubborn-set and prefix-cut edge relations the
  search graph only counts; :func:`oracle_witness` finds the shortest
  trace to a deadlock over them (ties broken by discovery order).
* **Scenario families.**  :class:`ExplicitFamily` stores a family of
  transition sets as a frozenset of frozensets, with the same duck-typed
  interface as :class:`~repro.families.bddfam.BddFamily`.
  :func:`oracle_gpn` builds a GPN over it, so the GPN semantics and the
  §3.3 explorer can be run on both representations and compared.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from repro.gpo.analysis import GpnSpace, GpoOptions, GpoResult
from repro.gpo.gpn import Gpn
from repro.net.exceptions import UnsafeNetError
from repro.net.petrinet import Marking, PetriNet
from repro.net.validation import SafetyCheck
from repro.search.core import SearchContext, explore, raise_if_bounded
from repro.search.graph import ReachabilityGraph
from repro.stubborn.stubborn import stubborn_enabled_mask
from repro.unfolding.prefix import Prefix

__all__ = [
    "ExplicitContext",
    "ExplicitFamily",
    "OracleMarkingSpace",
    "OracleStubbornSpace",
    "cut_marking",
    "discovery_tree",
    "oracle_check_safe",
    "oracle_cut_edges",
    "oracle_edges",
    "oracle_explore",
    "oracle_explore_gpo",
    "oracle_explore_reduced",
    "oracle_gpn",
    "oracle_witness",
]


class OracleMarkingSpace:
    """The full interleaving semantics over frozenset markings."""

    def __init__(self, net: PetriNet) -> None:
        self.net = net

    def initial(self) -> Marking:
        return self.net.initial_marking

    def is_deadlock(self, marking: Marking) -> bool:
        return not self.net.enabled_transitions(marking)

    def successors(
        self, marking: Marking, ctx: SearchContext[Marking]
    ) -> list[tuple[str, Marking]]:
        net = self.net
        return [
            (net.transitions[t], net.fire(t, marking))
            for t in net.enabled_transitions(marking)
        ]


class OracleStubbornSpace:
    """Stubborn-set reduced successors over frozenset markings.

    Each marking's enabled set is recomputed from scratch with
    ``net.enabled_transitions``; only the set choice itself goes through
    the production :func:`stubborn_enabled_mask`.  This checks the
    incremental enabled masks of
    :class:`~repro.stubborn.explorer.KernelStubbornSpace`.
    """

    def __init__(self, net: PetriNet) -> None:
        self.net = net
        self.kernel = net.kernel()

    def _to_fire(self, marking: Marking) -> list[int]:
        mask = 0
        for t in self.net.enabled_transitions(marking):
            mask |= 1 << t
        return stubborn_enabled_mask(
            self.kernel, self.kernel.encode(marking), mask
        )

    def initial(self) -> Marking:
        return self.net.initial_marking

    def is_deadlock(self, marking: Marking) -> bool:
        return not self._to_fire(marking)

    def successors(
        self, marking: Marking, ctx: SearchContext[Marking]
    ) -> list[tuple[str, Marking]]:
        net = self.net
        return [
            (net.transitions[t], net.fire(t, marking))
            for t in self._to_fire(marking)
        ]


def _explore(space, max_states: int | None) -> ReachabilityGraph[Marking]:
    outcome = explore(space, order="bfs", max_states=max_states)
    raise_if_bounded(outcome, max_states=max_states, max_seconds=None)
    return outcome.graph


def oracle_explore(
    net: PetriNet, *, max_states: int | None = None
) -> ReachabilityGraph[Marking]:
    """The full reachability graph, breadth-first, on frozensets."""
    return _explore(OracleMarkingSpace(net), max_states)


def oracle_explore_reduced(
    net: PetriNet, *, max_states: int | None = None
) -> ReachabilityGraph[Marking]:
    """The stubborn-set reduced graph, breadth-first, on frozensets."""
    return _explore(OracleStubbornSpace(net), max_states)


S = TypeVar("S", bound=Hashable)

#: An edge relation in discovery order: the states, and per state its
#: ``(label, target index)`` edges in generation order.
EdgeRelation = tuple[list[S], list[list[tuple[str, int]]]]


def discovery_tree(graph: ReachabilityGraph[S]) -> list[tuple[str, S] | None]:
    """Each stored state's discovery edge as ``(label, parent state)``, in
    discovery order (``None`` for the initial state)."""
    tree: list[tuple[str, S] | None] = []
    for state in graph.states():
        path = graph.path_to(state) or []
        if not path:
            tree.append(None)
        else:
            tree.append((path[-1][0], path[-2][1] if len(path) > 1 else graph.initial))
    return tree


def _bfs_edges(
    initial: S, step: Callable[[S], list[tuple[str, S]]]
) -> EdgeRelation[S]:
    index = {initial: 0}
    states = [initial]
    edges: list[list[tuple[str, int]]] = []
    while len(edges) < len(states):
        out = []
        for label, successor in step(states[len(edges)]):
            if successor not in index:
                index[successor] = len(states)
                states.append(successor)
            out.append((label, index[successor]))
        edges.append(out)
    return states, edges


def oracle_edges(net: PetriNet, *, reduced: bool = False) -> EdgeRelation[Marking]:
    """The full (or stubborn-set reduced) edge relation on frozensets."""
    space = OracleStubbornSpace(net) if reduced else OracleMarkingSpace(net)
    return _bfs_edges(net.initial_marking, lambda m: space.successors(m, None))


def oracle_cut_edges(prefix: Prefix) -> EdgeRelation[frozenset[int]]:
    """The edge relation of a prefix's cuts, as condition-index sets.

    An event is enabled at a cut holding its whole preset; firing it
    swaps the preset for the conditions it produced.  Events are tried
    in index order.
    """
    postsets: dict[int, set[int]] = {e.index: set() for e in prefix.events}
    for condition in prefix.conditions:
        if condition.producer is not None:
            postsets[condition.producer].add(condition.index)
    initial = frozenset(
        c.index for c in prefix.conditions if c.producer is None
    )
    labels = prefix.net.transitions

    def step(cut: frozenset[int]) -> list[tuple[str, frozenset[int]]]:
        return [
            (labels[event.transition], (cut - set(event.preset)) | postsets[event.index])
            for event in prefix.events
            if set(event.preset) <= cut
        ]

    return _bfs_edges(initial, step)


def cut_marking(prefix: Prefix, cut: frozenset[int]) -> Marking:
    """The marking a cut represents: the places of its conditions."""
    return frozenset(prefix.conditions[c].place for c in cut)


def oracle_witness(
    relation: EdgeRelation[S], is_deadlock: Callable[[S], bool]
) -> tuple[str, ...] | None:
    """Trace of a shortest path to the nearest deadlock.

    Distances come from a breadth-first search over ``relation`` in which
    the first edge into a state is its parent; equally near deadlocks
    break on discovery order.  ``None`` when no state is a deadlock.
    """
    states, edges = relation
    parent: dict[int, tuple[int, str] | None] = {0: None}
    queue = deque([0])
    while queue:
        current = queue.popleft()
        for label, target in edges[current]:
            if target not in parent:
                parent[target] = (current, label)
                queue.append(target)

    def trace(node: int) -> list[str]:
        steps = []
        link = parent[node]
        while link is not None:
            node, label = link
            steps.append(label)
            link = parent[node]
        return steps[::-1]

    dead = [i for i, state in enumerate(states) if is_deadlock(state)]
    if not dead:
        return None
    best = min(dead, key=lambda i: (len(trace(i)), i))
    return tuple(trace(best))


def oracle_check_safe(net: PetriNet, *, max_states: int = 100_000) -> SafetyCheck:
    """Bounded 1-safety walk on frozensets (same DFS order and witness as
    :func:`repro.net.validation.check_safe`)."""
    parents: dict[Marking, tuple[Marking, str] | None] = {
        net.initial_marking: None
    }
    frontier = [net.initial_marking]
    while frontier:
        if len(parents) > max_states:
            return SafetyCheck(
                status="unknown", states=len(parents), stop_reason="state-budget"
            )
        marking = frontier.pop()
        for t in net.enabled_transitions(marking):
            try:
                successor = net.fire(t, marking)
            except UnsafeNetError as exc:
                trace = [net.transitions[t]]
                link = parents[marking]
                while link is not None:
                    trace.append(link[1])
                    link = parents[link[0]]
                return SafetyCheck(
                    status="unsafe",
                    states=len(parents),
                    violation=str(exc),
                    marking=net.marking_names(marking),
                    trace=tuple(reversed(trace)),
                )
            if successor not in parents:
                parents[successor] = (marking, net.transitions[t])
                frontier.append(successor)
    return SafetyCheck(status="safe", states=len(parents))


class ExplicitFamily:
    """A family stored as a frozenset of frozensets of transition ids.

    Exact and transparent; every operation is linear in the number of
    member sets, which is exponential in the number of conflict clusters,
    so it only suits small nets.
    """

    __slots__ = ("sets",)

    def __init__(self, sets: frozenset[frozenset[int]]) -> None:
        self.sets = sets

    # -- algebra --------------------------------------------------------
    def intersect(self, other: "ExplicitFamily") -> "ExplicitFamily":
        return ExplicitFamily(self.sets & other.sets)

    def union(self, other: "ExplicitFamily") -> "ExplicitFamily":
        return ExplicitFamily(self.sets | other.sets)

    def difference(self, other: "ExplicitFamily") -> "ExplicitFamily":
        return ExplicitFamily(self.sets - other.sets)

    def filter_contains(self, transition: int) -> "ExplicitFamily":
        return ExplicitFamily(
            frozenset(v for v in self.sets if transition in v)
        )

    # -- queries --------------------------------------------------------
    def is_empty(self) -> bool:
        return not self.sets

    def count(self) -> int:
        return len(self.sets)

    def contains(self, transition_set: frozenset[int]) -> bool:
        return transition_set in self.sets

    def iter_sets(self, *, limit: int | None = None) -> Iterator[frozenset[int]]:
        return iter(sorted(self.sets, key=sorted)[:limit])

    def any_set(self) -> frozenset[int] | None:
        if not self.sets:
            return None
        return min(self.sets, key=sorted)

    def is_subset(self, other: "ExplicitFamily") -> bool:
        return self.sets <= other.sets

    def as_frozensets(self, *, limit: int | None = None) -> frozenset[frozenset[int]]:
        return frozenset(self.iter_sets(limit=limit))

    # -- value semantics -------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExplicitFamily):
            return NotImplemented
        return self.sets == other.sets

    def __hash__(self) -> int:
        return hash(self.sets)

    def __bool__(self) -> bool:
        return bool(self.sets)

    def __repr__(self) -> str:
        rendered = sorted(tuple(sorted(v)) for v in self.sets)
        return f"ExplicitFamily({rendered})"


class ExplicitContext:
    """Factory for :class:`ExplicitFamily` values over ``0..n-1``."""

    def __init__(self, num_transitions: int) -> None:
        self.num_transitions = num_transitions

    def empty(self) -> ExplicitFamily:
        return ExplicitFamily(frozenset())

    def singleton(self, transition_set: frozenset[int]) -> ExplicitFamily:
        return self.from_sets([transition_set])

    def from_sets(self, sets: Iterable[frozenset[int]]) -> ExplicitFamily:
        materialized = frozenset(frozenset(v) for v in sets)
        for v in materialized:
            for t in v:
                if not 0 <= t < self.num_transitions:
                    raise ValueError(
                        f"transition id {t} outside universe of size "
                        f"{self.num_transitions}"
                    )
        return ExplicitFamily(materialized)

    def union_all(self, families: Iterable[ExplicitFamily]) -> ExplicitFamily:
        return ExplicitFamily(frozenset().union(*(f.sets for f in families)))

    def intersect_all(self, families: Sequence[ExplicitFamily]) -> ExplicitFamily:
        if not families:
            raise ValueError("intersect_all needs at least one family")
        return ExplicitFamily(
            frozenset.intersection(*(f.sets for f in families))
        )

    def maximal_independent_sets(
        self, adjacency: Sequence[set[int]] | Sequence[frozenset[int]]
    ) -> ExplicitFamily:
        """All maximal independent sets, by Bron–Kerbosch with pivoting.

        Maximal independent sets of G are the maximal cliques of G's
        complement; the recursion tests independence against
        ``adjacency`` directly instead of materializing the complement.
        """
        n = self.num_transitions
        if len(adjacency) != n:
            raise ValueError("adjacency size must match the universe")
        results: list[frozenset[int]] = []

        def expand(current: set[int], candidates: set[int], excluded: set[int]) -> None:
            if not candidates and not excluded:
                results.append(frozenset(current))
                return
            pivot = max(
                candidates | excluded,
                key=lambda v: len(candidates - adjacency[v] - {v}),
            )
            # Branch on the pivot and its neighbours only: every maximal
            # independent set contains one of them.
            for v in sorted(candidates & (set(adjacency[pivot]) | {pivot})):
                expand(
                    current | {v},
                    {u for u in candidates if u != v and u not in adjacency[v]},
                    {u for u in excluded if u != v and u not in adjacency[v]},
                )
                candidates = candidates - {v}
                excluded = excluded | {v}

        expand(set(), set(range(n)), set())
        return ExplicitFamily(frozenset(results))


def oracle_gpn(net: PetriNet) -> Gpn:
    """A GPN whose scenario families are :class:`ExplicitFamily` values.

    Same net, structure and initial state as ``Gpn(net)``; only the family
    context and ``r0`` are swapped for the frozenset reference.
    """
    gpn = Gpn(net)
    gpn.ctx = ExplicitContext(net.num_transitions)  # type: ignore[assignment]
    gpn.r0 = gpn.ctx.maximal_independent_sets(gpn.info.adjacency)  # type: ignore[assignment]
    return gpn


def oracle_explore_gpo(
    net: PetriNet, options: GpoOptions | None = None
) -> GpoResult:
    """:func:`repro.gpo.explore_gpo` on an :func:`oracle_gpn`."""
    if options is None:
        options = GpoOptions()
    space = GpnSpace(oracle_gpn(net), options)
    outcome = explore(
        space,
        order="dfs",
        max_states=options.max_states,
        max_seconds=options.max_seconds,
        stop_at_first_deadlock=options.on_deadlock == "stop-all",
    )
    raise_if_bounded(
        outcome,
        max_states=options.max_states,
        max_seconds=options.max_seconds,
    )
    return GpoResult(space.gpn, outcome.graph, space.deadlock_states)
