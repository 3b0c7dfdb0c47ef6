"""Resource budgets shared by every exploration loop.

The single exploration driver (:mod:`repro.search.core`) enforces state
and wall-clock budgets cooperatively and returns *partial* results; the
exception types below exist for the thin compatibility wrappers
(``explore`` / ``explore_reduced`` / ``explore_gpo`` / ``explore_classes``)
whose historical contract is to raise on overruns, and for analyzers with
no explicit state graph (the symbolic engine's fixpoint loop).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "Deadline",
    "ExplorationLimitReached",
    "TimeLimitReached",
    "stopwatch",
]


class ExplorationLimitReached(RuntimeError):
    """Raised when an explorer exceeds its configured state budget.

    ``states_explored`` carries the number of states the explorer had
    actually stored when it gave up (the driver stops exactly at the
    budget), so overrun reports can show real progress.
    """

    def __init__(self, limit: int, states_explored: int | None = None) -> None:
        super().__init__(f"state limit of {limit} states exceeded")
        self.limit = limit
        self.states_explored = states_explored


class TimeLimitReached(RuntimeError):
    """Raised when an analyzer exceeds its configured wall-time budget.

    ``states_explored`` carries the progress made before the deadline hit
    (states, markings, events or cuts, depending on the analyzer);
    ``extras`` holds analyzer-specific progress counters for the bounded
    result's ``extras``.
    """

    def __init__(
        self,
        seconds: float,
        states_explored: int | None = None,
        extras: dict[str, int] | None = None,
    ) -> None:
        super().__init__(f"time limit of {seconds:.1f}s exceeded")
        self.seconds = seconds
        self.states_explored = states_explored
        self.extras = extras or {}


class Deadline:
    """A cooperative wall-clock budget checked inside exploration loops.

    The generic driver calls :meth:`expired` once per expanded state and
    stops with a partial result; analyzers without a driver call
    :meth:`check`, which raises :class:`TimeLimitReached` carrying the
    progress made so far.  ``Deadline.of(None)`` returns ``None`` so
    callers can guard with ``if deadline is not None``.
    """

    __slots__ = ("seconds", "expires_at")

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.expires_at = time.perf_counter() + seconds

    @classmethod
    def of(cls, seconds: float | None) -> "Deadline | None":
        """Build a deadline, or ``None`` when no time budget applies."""
        return None if seconds is None else cls(seconds)

    def remaining(self) -> float:
        """Seconds left before the deadline (negative once it has passed)."""
        return self.expires_at - time.perf_counter()

    def expired(self) -> bool:
        """True once the wall clock has passed the deadline."""
        return time.perf_counter() > self.expires_at

    def check(self, states_explored: int | None = None) -> None:
        """Raise :class:`TimeLimitReached` when the deadline has passed."""
        if time.perf_counter() > self.expires_at:
            raise TimeLimitReached(self.seconds, states_explored)


@contextmanager
def stopwatch() -> Iterator[list[float]]:
    """Context manager measuring wall time into a single-element list.

    >>> with stopwatch() as elapsed:
    ...     pass
    >>> elapsed[0] >= 0.0
    True
    """
    box = [0.0]
    start = time.perf_counter()
    try:
        yield box
    finally:
        box[0] = time.perf_counter() - start
