"""McMillan's finite complete prefix of the unfolding of a safe net.

Net unfoldings are the other classical true-concurrency attack on state
explosion (the paper cites their use for asynchronous-circuit verification
[13]).  The *unfolding* is an acyclic occurrence net whose conditions are
token occurrences and whose events are transition occurrences; McMillan's
*cutoff* criterion truncates it to a finite prefix that still represents
every reachable marking.

Implemented here:

* :class:`Condition` / :class:`Event` — occurrence-net nodes with local
  configurations and concurrency bookkeeping;
* :class:`Prefix` — the complete finite prefix, built with a priority
  queue ordered by local-configuration size (McMillan's adequate order);
  an event is a **cutoff** when some earlier event (or the empty
  configuration) already reaches the same marking with a strictly smaller
  local configuration.

The walk over the prefix's configurations (deadlock, properties, the
represented markings) lives in :mod:`repro.unfolding.analysis`.

The implementation favors clarity over asymptotics (concurrency is
decided from explicit causal pasts); it comfortably handles the
benchmark-family sizes used in the test-suite and serves as a reduction
*metric* (events/conditions/cutoffs vs. state counts), not as the fastest
engine in the repository.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import product

from repro.analysis.stats import Deadline
from repro.net.petrinet import Marking, PetriNet

__all__ = ["Condition", "Event", "Prefix", "unfold"]


@dataclass(frozen=True)
class Condition:
    """A token occurrence: a place plus the event that produced it.

    ``producer`` is ``None`` for the conditions of the initial marking.
    """

    index: int
    place: int
    producer: int | None


@dataclass(frozen=True)
class Event:
    """A transition occurrence consuming a co-set of conditions."""

    index: int
    transition: int
    preset: tuple[int, ...]  # condition indices
    local_config: frozenset[int]  # event indices, self included
    marking: Marking  # cut marking of the local configuration
    is_cutoff: bool


@dataclass
class Prefix:
    """The complete finite prefix of a safe net's unfolding."""

    net: PetriNet
    conditions: list[Condition] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)

    @property
    def num_conditions(self) -> int:
        return len(self.conditions)

    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def num_cutoffs(self) -> int:
        return sum(1 for e in self.events if e.is_cutoff)

    def condition_label(self, index: int) -> str:
        """Place name of a condition."""
        return self.net.places[self.conditions[index].place]

    def event_label(self, index: int) -> str:
        """Transition name of an event."""
        return self.net.transitions[self.events[index].transition]

    def local_markings(self) -> set[Marking]:
        """Cut markings of all local configurations (plus the initial)."""
        out = {self.net.initial_marking}
        out.update(e.marking for e in self.events)
        return out

    def __repr__(self) -> str:
        return (
            f"Prefix(events={self.num_events}, "
            f"conditions={self.num_conditions}, cutoffs={self.num_cutoffs})"
        )


class _Builder:
    """Internal state of the unfolding construction."""

    def __init__(
        self,
        net: PetriNet,
        max_events: int | None,
        max_seconds: float | None = None,
    ) -> None:
        self.net = net
        self.max_events = max_events
        self.deadline = Deadline.of(max_seconds)
        self.prefix = Prefix(net)
        # per condition: its causal past as a frozenset of event indices
        self.past: list[frozenset[int]] = []
        # per condition index: consumed-by which (non-virtual) events
        self.consumers: list[set[int]] = []
        # conditions grouped by place label, for extension search
        self.by_place: dict[int, list[int]] = {}
        # markings seen with the size of the smallest local config
        self.best_size: dict[Marking, int] = {net.initial_marking: 0}
        # priority queue of candidate events:
        # (local size, transition, preset conditions, local config)
        self.queue: list[
            tuple[int, int, tuple[int, ...], frozenset[int]]
        ] = []
        self.enqueued: set[tuple[int, tuple[int, ...]]] = set()

    # -- occurrence-net helpers -----------------------------------------
    def add_condition(self, place: int, producer: int | None) -> int:
        index = len(self.prefix.conditions)
        self.prefix.conditions.append(Condition(index, place, producer))
        if producer is None:
            self.past.append(frozenset())
        else:
            self.past.append(self.prefix.events[producer].local_config)
        self.consumers.append(set())
        self.by_place.setdefault(place, []).append(index)
        return index

    def concurrent(self, b1: int, b2: int) -> bool:
        """Are two conditions concurrent (co)?

        Both lie on one cut iff their joint causal past is conflict-free
        (no condition consumed by two different events — that would be a
        choice resolved both ways) and neither condition is consumed
        *inside* that joint past (which would make it causally precede
        the other).  Conditions produced by the same event are concurrent.
        """
        if b1 == b2:
            return False
        joint = self.past[b1] | self.past[b2]
        consumed: dict[int, int] = {}
        for event_index in joint:
            for condition in self.prefix.events[event_index].preset:
                other = consumed.get(condition)
                if other is not None and other != event_index:
                    return False  # conflict
                consumed[condition] = event_index
        if b1 in consumed or b2 in consumed:
            return False  # causal precedence
        return True

    def coset_marking(self, local_config: frozenset[int]) -> Marking:
        """Cut marking of a configuration (initial + produced - consumed).

        A condition is in the cut iff it was produced by the configuration
        (or belongs to the initial marking) and no event of the
        configuration consumed it.
        """
        consumed_conditions: set[int] = set()
        for event_index in local_config:
            consumed_conditions.update(self.prefix.events[event_index].preset)
        cut_places: set[int] = set()
        for condition in self.prefix.conditions:
            in_config = (
                condition.producer is None
                or condition.producer in local_config
            )
            if in_config and condition.index not in consumed_conditions:
                cut_places.add(condition.place)
        return frozenset(cut_places)

    # -- extension search -------------------------------------------------
    def extensions_with(self, new_condition: int) -> None:
        """Enqueue all possible extensions whose preset uses ``new_condition``."""
        place = self.prefix.conditions[new_condition].place
        for t in self.net.post_transitions[place]:
            pre_places = sorted(self.net.pre_places[t])
            pools: list[list[int]] = []
            for p in pre_places:
                if p == place:
                    pools.append([new_condition])
                else:
                    pools.append(self.by_place.get(p, []))
            for combo in product(*pools):
                if len(set(combo)) != len(combo):
                    continue
                ok = True
                for i in range(len(combo)):
                    for j in range(i + 1, len(combo)):
                        if not self.concurrent(combo[i], combo[j]):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                preset = tuple(sorted(combo))
                key = (t, preset)
                if key in self.enqueued:
                    continue
                self.enqueued.add(key)
                config = frozenset().union(*(self.past[b] for b in preset))
                size = len(config) + 1
                heapq.heappush(self.queue, (size, t, preset, config))

    def run(self) -> Prefix:
        for p in sorted(self.net.initial_marking):
            index = self.add_condition(p, None)
            self.extensions_with(index)
        while self.queue:
            if (
                self.max_events is not None
                and len(self.prefix.events) >= self.max_events
            ):
                break
            if self.deadline is not None:
                self.deadline.check(len(self.prefix.events))
            size, t, preset, config = heapq.heappop(self.queue)
            # A preset condition may have been consumed only in conflict —
            # occurrence nets allow sharing; but if any producer became a
            # cutoff's descendant we skip (cutoffs are not extended).
            if any(self._under_cutoff(b) for b in preset):
                continue
            event_index = len(self.prefix.events)
            local_config = config | {event_index}
            placeholder = Event(
                index=event_index,
                transition=t,
                preset=preset,
                local_config=local_config,
                marking=frozenset(),
                is_cutoff=False,
            )
            self.prefix.events.append(placeholder)
            # The event's own postset conditions are not materialized yet;
            # account for its produced places directly.
            marking = self.coset_marking(local_config) | frozenset(
                self.net.post_places[t]
            )
            best = self.best_size.get(marking)
            is_cutoff = best is not None and best < len(local_config)
            if not is_cutoff:
                self.best_size[marking] = len(local_config)
            self.prefix.events[event_index] = Event(
                index=event_index,
                transition=t,
                preset=preset,
                local_config=local_config,
                marking=marking,
                is_cutoff=is_cutoff,
            )
            for b in preset:
                self.consumers[b].add(event_index)
            # Cutoff events keep their postset conditions (so every
            # configuration has its full cut) but are never extended.
            for p in sorted(self.net.post_places[t]):
                condition = self.add_condition(p, event_index)
                if not is_cutoff:
                    self.extensions_with(condition)
        return self.prefix

    def _under_cutoff(self, condition: int) -> bool:
        producer = self.prefix.conditions[condition].producer
        return producer is not None and self.prefix.events[producer].is_cutoff


def unfold(
    net: PetriNet,
    *,
    max_events: int | None = 10_000,
    max_seconds: float | None = None,
) -> Prefix:
    """Build the complete finite prefix of ``net``'s unfolding.

    ``max_events`` guards against runaway growth (the prefix of a bounded
    net is finite, but can be large); reaching the bound leaves the prefix
    truncated — check ``num_events`` against it when completeness matters.
    ``max_seconds`` is a cooperative wall-clock budget: exceeding it raises
    :class:`~repro.analysis.stats.TimeLimitReached`.
    """
    return _Builder(net, max_events, max_seconds).run()
