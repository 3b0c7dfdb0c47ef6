"""Structural sanity checks for nets.

The kernel enforces hard structural constraints at build time; this module
collects *advisory* diagnostics (isolated places, dead transitions by
structure, sources/sinks) plus a bounded-effort dynamic safety check used by
the property planner's ``safe`` walk, ``gpo check`` and the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.exceptions import UnsafeNetError
from repro.net.petrinet import PetriNet
from repro.search.limits import Deadline

__all__ = ["Diagnostics", "SafetyCheck", "diagnose", "check_safe"]


@dataclass
class Diagnostics:
    """Collected structural warnings for a net."""

    isolated_places: list[str] = field(default_factory=list)
    sink_transitions: list[str] = field(default_factory=list)
    structurally_dead_transitions: list[str] = field(default_factory=list)
    unmarked_source_places: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no advisory diagnostics were raised."""
        return not (
            self.isolated_places
            or self.sink_transitions
            or self.structurally_dead_transitions
            or self.unmarked_source_places
        )

    def summary(self) -> str:
        """Human-readable multi-line summary (empty string when clean)."""
        lines = []
        if self.isolated_places:
            lines.append(
                "isolated places (no arcs): " + ", ".join(self.isolated_places)
            )
        if self.sink_transitions:
            lines.append(
                "sink transitions (no outputs): "
                + ", ".join(self.sink_transitions)
            )
        if self.structurally_dead_transitions:
            lines.append(
                "transitions with an input place that can never be marked: "
                + ", ".join(self.structurally_dead_transitions)
            )
        if self.unmarked_source_places:
            lines.append(
                "unmarked places with no producers: "
                + ", ".join(self.unmarked_source_places)
            )
        return "\n".join(lines)


def diagnose(net: PetriNet) -> Diagnostics:
    """Run all structural diagnostics on ``net``."""
    diagnostics = Diagnostics()
    for p in range(net.num_places):
        has_arcs = net.pre_transitions[p] or net.post_transitions[p]
        if not has_arcs:
            diagnostics.isolated_places.append(net.places[p])
        if (
            not net.pre_transitions[p]
            and p not in net.initial_marking
            and net.post_transitions[p]
        ):
            diagnostics.unmarked_source_places.append(net.places[p])
    for t in range(net.num_transitions):
        if not net.post_places[t]:
            diagnostics.sink_transitions.append(net.transitions[t])

    # A transition is structurally dead when some input place is unmarked
    # and has no producers: no execution can ever mark it.
    dead_places = {
        p
        for p in range(net.num_places)
        if not net.pre_transitions[p] and p not in net.initial_marking
    }
    for t in range(net.num_transitions):
        if net.pre_places[t] & dead_places:
            diagnostics.structurally_dead_transitions.append(
                net.transitions[t]
            )
    return diagnostics


@dataclass(frozen=True)
class SafetyCheck:
    """Tri-state verdict of the bounded dynamic 1-safety check.

    ``status`` is ``"safe"`` (exhaustive exploration, no violation),
    ``"unsafe"`` (a reachable firing puts two tokens on a place), or
    ``"unknown"`` (a budget ran out before either conclusion — explicitly
    *not* conflated with "safe"; ``stop_reason`` says which one,
    ``"state-budget"`` or ``"time-budget"``).  Truthiness means proven
    safe, so ``assert check_safe(net)`` keeps its historical reading.

    An ``"unsafe"`` verdict carries a replayable witness: ``marking`` is
    the reachable marking (place names) in which the violating transition
    is enabled, and ``trace`` the firing sequence from the initial
    marking that reaches it followed by the violating firing.
    """

    status: str
    states: int
    violation: str | None = None
    marking: frozenset[str] | None = None
    trace: tuple[str, ...] = ()
    stop_reason: str | None = None

    def __bool__(self) -> bool:
        return self.status == "safe"


def check_safe(
    net: PetriNet,
    *,
    max_states: int = 100_000,
    max_seconds: float | None = None,
) -> SafetyCheck:
    """Dynamically check 1-safety by bounded exhaustive exploration.

    Returns a :class:`SafetyCheck`: ``"safe"`` only when the *entire*
    state space was explored within ``max_states`` states (and
    ``max_seconds`` of wall time, checked once per expanded state)
    without a violation, ``"unsafe"`` on the first violating firing,
    ``"unknown"`` when a budget was exhausted first.  For a structural
    (zero-state) safety proof see
    :func:`repro.static.safety.certify_safety`.

    The depth-first walk runs on packed integer markings via the net's
    :class:`~repro.net.kernel.MarkingKernel` and keeps one parent pointer
    per stored state, from which an unsafe verdict's trace is rebuilt.
    """
    deadline = Deadline.of(max_seconds)
    kernel = net.kernel()
    # Each stored state maps to the state it was first reached from (the
    # initial state to itself); the fired transitions are recovered only
    # when a witness is needed.
    parents: dict[int, int] = {kernel.initial: kernel.initial}
    frontier = [kernel.initial]
    while frontier:
        if len(parents) > max_states:
            return SafetyCheck(
                status="unknown", states=len(parents), stop_reason="state-budget"
            )
        if deadline is not None and deadline.expired():
            return SafetyCheck(
                status="unknown", states=len(parents), stop_reason="time-budget"
            )
        bits = frontier.pop()
        # Fire one transition at a time (not the fused kernel.successors)
        # so the states count at an "unsafe" verdict includes successors
        # discovered before the violating firing.
        for t in kernel.enabled_transitions(bits):
            try:
                successor = kernel.fire_enabled(t, bits)
            except UnsafeNetError as exc:
                return SafetyCheck(
                    status="unsafe",
                    states=len(parents),
                    violation=str(exc),
                    marking=net.marking_names(kernel.decode(bits)),
                    trace=_path_to(net, parents, bits) + (net.transitions[t],),
                )
            if successor not in parents:
                parents[successor] = bits
                frontier.append(successor)
    return SafetyCheck(status="safe", states=len(parents))


def _path_to(
    net: PetriNet, parents: dict[int, int], bits: int
) -> tuple[str, ...]:
    """Transition names from the initial marking to ``bits``.

    Each step is the first enabled transition (in the walk's firing
    order) leading from the parent to the child — the one that
    discovered the child, since the walk fires in that same order.
    """
    kernel = net.kernel()
    steps: list[str] = []
    while parents[bits] != bits:
        parent = parents[bits]
        step = next(
            t
            for t in kernel.enabled_transitions(parent)
            if kernel.fire_enabled(t, parent) == bits
        )
        steps.append(net.transitions[step])
        bits = parent
    return tuple(reversed(steps))
