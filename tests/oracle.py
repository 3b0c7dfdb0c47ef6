"""Frozenset reference semantics, for differential tests only.

Every analyzer runs on the bitmask :class:`~repro.net.kernel.MarkingKernel`.
The spaces here run the paper's enabling and firing rules (Defs. 2.3–2.4)
directly on frozenset markings through
:meth:`~repro.net.petrinet.PetriNet.enabled_transitions` and
:meth:`~repro.net.petrinet.PetriNet.fire`, so the test-suite can hold the
kernel explorers to an independent reference: same states in the same
discovery order, same edges, same deadlocks, same safety verdicts.
"""

from __future__ import annotations

from repro.net.exceptions import UnsafeNetError
from repro.net.petrinet import Marking, PetriNet
from repro.net.validation import SafetyCheck
from repro.search.core import SearchContext, explore, raise_if_bounded
from repro.search.graph import ReachabilityGraph
from repro.stubborn.stubborn import stubborn_enabled_mask

__all__ = [
    "OracleMarkingSpace",
    "OracleStubbornSpace",
    "oracle_check_safe",
    "oracle_explore",
    "oracle_explore_reduced",
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


def oracle_check_safe(net: PetriNet, *, max_states: int = 100_000) -> SafetyCheck:
    """Bounded 1-safety walk on frozensets (same DFS order as
    :func:`repro.net.validation.check_safe`)."""
    seen: set[Marking] = {net.initial_marking}
    frontier = [net.initial_marking]
    while frontier:
        if len(seen) > max_states:
            return SafetyCheck(status="unknown", states=len(seen))
        marking = frontier.pop()
        for t in net.enabled_transitions(marking):
            try:
                successor = net.fire(t, marking)
            except UnsafeNetError as exc:
                return SafetyCheck(
                    status="unsafe", states=len(seen), violation=str(exc)
                )
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return SafetyCheck(status="safe", states=len(seen))
