"""The generic instrumented exploration core.

Full, stubborn-set, generalized partial-order and timed state-class
exploration, and the walk over an unfolding prefix's cuts, are *the same
search* with different successor rules — the paper's Table 1 only
compares them meaningfully because of that.  This
module is the single budgeted driver they all run on:

* a :class:`SearchSpace` adapter supplies ``initial`` /
  ``successors(state, ctx)`` / ``is_deadlock(state)``;
* :func:`explore` runs it breadth- or depth-first under state and
  wall-clock budgets and **returns a partial graph with an ``exhaustive``
  flag instead of raising and re-exploring**;
* :class:`~repro.search.observers.SearchObserver` hooks see every state,
  edge and deadlock as they are discovered (on-the-fly queries, event
  streaming), and a :class:`SearchStats` record collects uniform
  instrumentation — states/sec, peak frontier size, mean enabled-set
  size — for ``AnalysisResult.extras`` and the engine's JSONL events.

Depth-first order additionally maintains the current DFS path and exposes
it through :meth:`SearchContext.on_current_path`, which is how the GPO
explorer detects back-edges for its anti-ignoring proviso.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Generic,
    Hashable,
    Iterable,
    Protocol,
    Sequence,
    TypeVar,
    runtime_checkable,
)

from repro.obs import names
from repro.obs.names import INSTRUMENTATION_FIELDS
from repro.obs.tracer import current_tracer
from repro.search.graph import ReachabilityGraph
from repro.search.limits import (
    Deadline,
    ExplorationLimitReached,
    TimeLimitReached,
)
from repro.search.observers import TracingObserver

__all__ = [
    "INSTRUMENTATION_FIELDS",
    "SearchContext",
    "SearchOutcome",
    "SearchSpace",
    "SearchStats",
    "abort_note",
    "explore",
    "raise_if_bounded",
]

S = TypeVar("S", bound=Hashable)


@runtime_checkable
class SearchSpace(Protocol[S]):
    """What an explorer must provide to run on the generic driver.

    ``successors`` must yield ``(edge label, successor state)`` pairs in a
    deterministic order — the driver adds edges and schedules new states
    exactly in that order, which is what makes the explored graph
    reproducible.  ``is_deadlock`` is consulted once per expanded state,
    *before* ``successors``; a deadlocked state may still yield successors
    (the GPO ``on_deadlock="continue"`` regime).  Adapters that need the
    same per-state computation in both methods should memoize it keyed on
    state identity — the driver passes the identical object to both.
    """

    def initial(self) -> S:
        """The root state of the search."""
        ...

    def successors(
        self, state: S, ctx: "SearchContext[S]"
    ) -> Iterable[tuple[str, S]]:
        """Ordered ``(label, successor)`` pairs of ``state``."""
        ...

    def is_deadlock(self, state: S) -> bool:
        """Should ``state`` be recorded as a deadlock?"""
        ...


class SearchContext(Generic[S]):
    """Driver state exposed to spaces and observers during a search."""

    __slots__ = ("order", "graph", "_on_path")

    def __init__(
        self,
        order: str,
        graph: ReachabilityGraph[S],
        on_path: set[S],
    ) -> None:
        self.order = order
        self.graph = graph
        self._on_path = on_path

    def on_current_path(self, state: S) -> bool:
        """Would an edge to ``state`` close a cycle of the current DFS path?

        Only meaningful in depth-first order (always False under BFS,
        where no path is maintained); used by the GPO explorer's
        anti-ignoring proviso.
        """
        return state in self._on_path


@dataclass
class SearchStats:
    """Uniform instrumentation collected by the driver.

    ``expanded`` counts states whose successors were generated (equal to
    the number of stored states on exhaustive runs, smaller on bounded
    ones); ``successor_total`` sums the enabled-set sizes, so
    ``mean_enabled`` is the mean branching factor the successor rule
    produced.
    """

    states: int = 1
    expanded: int = 0
    deadlocks: int = 0
    peak_frontier: int = 1
    successor_total: int = 0
    elapsed_seconds: float = 0.0

    @property
    def mean_enabled(self) -> float:
        """Mean successor-set size per expanded state."""
        if not self.expanded:
            return 0.0
        return self.successor_total / self.expanded

    @property
    def states_per_second(self) -> float:
        """Stored states per second of wall time."""
        if self.elapsed_seconds <= 0.0:
            return float(self.states)
        return self.states / self.elapsed_seconds

    def as_extras(self) -> dict[str, Any]:
        """The driver-level instrumentation counters, JSON-ready."""
        return {
            names.EXPANDED: self.expanded,
            names.PEAK_FRONTIER: self.peak_frontier,
            names.MEAN_ENABLED: round(self.mean_enabled, 3),
            names.STATES_PER_SECOND: round(self.states_per_second, 1),
        }


@dataclass
class SearchOutcome(Generic[S]):
    """What a driven exploration produced — possibly partial.

    ``exhaustive`` is True when the frontier drained (or the search
    stopped because the deadlock question it was asked is answered);
    ``stop_reason`` says why a non-drained search stopped:
    ``"state-budget"``, ``"time-budget"``, ``"deadlock"``
    (``stop_at_first_deadlock``) or ``"observer"`` (an observer hook
    requested termination, e.g. a reachability query hit its target).
    """

    graph: ReachabilityGraph[S]
    exhaustive: bool
    stop_reason: str | None
    stats: SearchStats = field(default_factory=SearchStats)


def abort_note(
    stop_reason: str | None,
    *,
    max_states: int | None = None,
    max_seconds: float | None = None,
) -> str | None:
    """The ``extras["aborted"]`` marker for a bounded outcome."""
    if stop_reason == "state-budget":
        return f"> {max_states} states"
    if stop_reason == "time-budget":
        return f"> {max_seconds:g}s"
    if stop_reason == "observer":
        return "stopped by observer"
    return None


def raise_if_bounded(
    outcome: SearchOutcome[S],
    *,
    max_states: int | None = None,
    max_seconds: float | None = None,
) -> SearchOutcome[S]:
    """Convert a budget-bounded outcome into the historical exceptions.

    The compatibility wrappers (``explore`` / ``explore_reduced`` /
    ``explore_gpo`` / ``explore_classes``) contractually raise
    :class:`ExplorationLimitReached` / :class:`TimeLimitReached`; the
    ``analyze`` entry points use the partial outcome directly instead.
    """
    if outcome.stop_reason == "state-budget":
        assert max_states is not None
        raise ExplorationLimitReached(max_states, outcome.graph.num_states)
    if outcome.stop_reason == "time-budget":
        assert max_seconds is not None
        raise TimeLimitReached(max_seconds, outcome.graph.num_states)
    return outcome


#: DFS exit marker: popping it closes the scope of one path state.
_EXIT: Any = object()


def explore(
    space: SearchSpace[S],
    *,
    order: str = "bfs",
    max_states: int | None = None,
    max_seconds: float | None = None,
    stop_at_first_deadlock: bool = False,
    observers: Sequence[Any] = (),
) -> SearchOutcome[S]:
    """Run ``space`` to exhaustion or to a budget, never raising on either.

    The state budget is exact: the driver stops as soon as a successor
    would require storing state ``max_states + 1``, so a bounded outcome
    reports exactly the progress made (``graph.num_states <= max_states``).
    The wall-clock budget is checked cooperatively once per expanded
    state.  Observer hooks (``on_state`` / ``on_edge`` / ``on_deadlock``)
    may return a truthy value to request early termination
    (``stop_reason="observer"``).  When the ambient tracer is enabled the
    driver attaches a :class:`~repro.search.observers.TracingObserver`
    itself, so every driven search emits its ``search`` span.
    """
    if order not in ("bfs", "dfs"):
        raise ValueError(f"unknown search order {order!r}")
    tracer = current_tracer()
    if tracer.enabled:
        observers = (*observers, TracingObserver(tracer))
    deadline = Deadline.of(max_seconds)
    start = time.perf_counter()
    initial = space.initial()
    graph: ReachabilityGraph[S] = ReachabilityGraph(initial)
    stats = SearchStats()
    path: list[S] = []
    on_path: set[S] = set()
    ctx: SearchContext[S] = SearchContext(order, graph, on_path)
    frontier: deque[S] = deque([initial])
    depth_first = order == "dfs"

    # Hot-loop bindings: the loop below runs once per edge of graphs with
    # hundreds of thousands of edges, so counters live in locals and the
    # graph is updated through its index-based fast path (one dict probe
    # per successor instead of ``add_edge``'s three).
    index_get = graph.raw_index().get
    edge_lists = graph.raw_edges()
    insert_new = graph.insert_new
    frontier_append = frontier.append
    # Passive observers (``observer.passive`` truthy, e.g. the tracing
    # observer) only need the begin/end and deadlock hooks — skipping the
    # per-successor dispatch for them keeps traced runs on the same hot
    # loop as bare ones.
    has_observers = any(
        not getattr(observer, "passive", False) for observer in observers
    )
    cap: float = max_states if max_states is not None else float("inf")
    num_states = 1
    expanded = 0
    deadlocks = 0
    peak_frontier = 1
    successor_total = 0

    stop: str | None = None
    for observer in observers:
        if observer.on_state(initial, ctx):
            stop = "observer"

    while frontier and stop is None:
        pending = len(frontier) - len(path)
        if pending > peak_frontier:
            peak_frontier = pending
        if depth_first:
            popped = frontier.pop()
            if popped is _EXIT:
                on_path.discard(path.pop())
                continue
            state = popped
        else:
            state = frontier.popleft()
        if deadline is not None and deadline.expired():
            stop = "time-budget"
            break
        expanded += 1
        if depth_first:
            frontier_append(_EXIT)
            path.append(state)
            on_path.add(state)
        if space.is_deadlock(state):
            graph.mark_deadlock(state)
            deadlocks += 1
            for observer in observers:
                if observer.on_deadlock(state):
                    stop = "observer"
            if stop_at_first_deadlock:
                stop = "deadlock"
                break
            if stop is not None:
                break
        source_index = index_get(state)
        assert source_index is not None
        out_edges = edge_lists[source_index]
        for label, successor in space.successors(state, ctx):
            successor_total += 1
            target_index = index_get(successor)
            if target_index is None:
                if num_states >= cap:
                    stop = "state-budget"
                    break
                target_index = insert_new(successor)
                num_states += 1
                frontier_append(successor)
                out_edges.append((label, target_index))
                if has_observers:
                    for observer in observers:
                        if observer.on_edge(state, label, successor, True):
                            stop = "observer"
                    for observer in observers:
                        if observer.on_state(successor, ctx):
                            stop = "observer"
                    if stop is not None:
                        break
            else:
                out_edges.append((label, target_index))
                if has_observers:
                    for observer in observers:
                        if observer.on_edge(state, label, successor, False):
                            stop = "observer"
                    if stop is not None:
                        break

    stats.states = num_states
    stats.expanded = expanded
    stats.deadlocks = deadlocks
    stats.peak_frontier = peak_frontier
    stats.successor_total = successor_total
    stats.elapsed_seconds = time.perf_counter() - start
    exhaustive = stop is None or stop == "deadlock"
    outcome = SearchOutcome(
        graph=graph, exhaustive=exhaustive, stop_reason=stop, stats=stats
    )
    for observer in observers:
        observer.on_done(outcome)
    return outcome
