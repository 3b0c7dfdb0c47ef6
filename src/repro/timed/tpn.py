"""Time Petri nets (Merlin): safe nets with static firing intervals.

The paper's closing section points at "the efficient timing verification
of concurrent systems, modeled as Timed Petri nets" as the direction the
authors were extending the work towards (citing [7, 13]).  This package
implements that substrate: Merlin-style *time Petri nets*, where every
transition carries a static interval ``[eft, lft]`` — once continuously
enabled for ``eft`` time units it may fire, and it must fire before
``lft`` elapses (strong semantics) unless disabled first.

A :class:`TimedPetriNet` wraps a structural :class:`~repro.net.PetriNet`
with the interval map; the analysis lives in
:mod:`repro.timed.stateclass` (Berthomieu-Diaz state classes).

Intervals use non-negative integers with ``None`` as ∞ for the latest
firing time.  ``(0, None)`` — "any time" — makes the net behave exactly
like its untimed skeleton, a property the test-suite exploits.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping

from repro.net.exceptions import NetStructureError, UnknownNodeError
from repro.net.petrinet import NetBuilder, PetriNet

__all__ = ["Interval", "TimedPetriNet", "TimedNetBuilder"]

#: A static firing interval: (earliest, latest); latest ``None`` means ∞.
Interval = tuple[int, int | None]


class TimedPetriNet:
    """An immutable time Petri net: structure + static intervals."""

    __slots__ = ("net", "intervals")

    def __init__(
        self, net: PetriNet, intervals: Mapping[str, Interval] | Iterable[Interval]
    ) -> None:
        if isinstance(intervals, Mapping):
            resolved: list[Interval] = []
            for t in net.transitions:
                if t not in intervals:
                    raise UnknownNodeError("transition interval", t)
                resolved.append(intervals[t])
            extra = set(intervals) - set(net.transitions)
            if extra:
                raise UnknownNodeError("transition", sorted(extra)[0])
        else:
            resolved = list(intervals)
            if len(resolved) != net.num_transitions:
                raise NetStructureError(
                    "interval list length must match the transition count"
                )
        for t, (eft, lft) in enumerate(resolved):
            if eft < 0:
                raise NetStructureError(
                    f"negative earliest firing time on "
                    f"{net.transitions[t]!r}"
                )
            if lft is not None and lft < eft:
                raise NetStructureError(
                    f"empty interval [{eft}, {lft}] on {net.transitions[t]!r}"
                )
        self.net = net
        self.intervals: tuple[Interval, ...] = tuple(resolved)

    @property
    def name(self) -> str:
        """The skeleton's name (jobs, events and results report it)."""
        return self.net.name

    def canonical_hash(self) -> str:
        """SHA-256 over the skeleton's canonical hash and every interval.

        Intervals are keyed by transition name, so declaration order does
        not change the hash, while any changed bound does.
        """
        lines = [self.net.canonical_hash()]
        for name, (eft, lft) in sorted(zip(self.net.transitions, self.intervals)):
            lines.append(f"{name}@[{eft},{'inf' if lft is None else lft}]")
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    def eft(self, t: int) -> int:
        """Earliest firing time of transition index ``t``."""
        return self.intervals[t][0]

    def lft(self, t: int) -> int | None:
        """Latest firing time of transition index ``t`` (``None`` = ∞)."""
        return self.intervals[t][1]

    def interval_of(self, name: str) -> Interval:
        """Interval of a transition given by name."""
        return self.intervals[self.net.transition_id(name)]

    @classmethod
    def untimed(cls, net: PetriNet) -> "TimedPetriNet":
        """Wrap a net with ``[0, ∞)`` everywhere (timed ≡ untimed)."""
        return cls(net, [(0, None)] * net.num_transitions)

    def __repr__(self) -> str:
        return f"TimedPetriNet({self.net.name!r}, |T|={self.net.num_transitions})"


class TimedNetBuilder:
    """Builder declaring places, timed transitions and arcs together.

    >>> b = TimedNetBuilder("t")
    >>> b.place("p", marked=True)
    'p'
    >>> b.transition("fast", interval=(0, 1), inputs=["p"])
    'fast'
    >>> b.build().interval_of("fast")
    (0, 1)
    """

    def __init__(self, name: str = "timed_net") -> None:
        self._builder = NetBuilder(name)
        self._intervals: list[Interval] = []

    def place(self, name: str, *, marked: bool = False) -> str:
        """Declare a place."""
        return self._builder.place(name, marked=marked)

    def transition(
        self,
        name: str,
        *,
        interval: Interval = (0, None),
        inputs: Iterable[str] = (),
        outputs: Iterable[str] = (),
    ) -> str:
        """Declare a transition with its static firing interval."""
        result = self._builder.transition(name, inputs=inputs, outputs=outputs)
        self._intervals.append(interval)
        return result

    def arc(self, source: str, target: str) -> None:
        """Add a flow arc (see :meth:`NetBuilder.arc`)."""
        self._builder.arc(source, target)

    def build(self) -> TimedPetriNet:
        """Validate and freeze the timed net."""
        return TimedPetriNet(self._builder.build(), self._intervals)
