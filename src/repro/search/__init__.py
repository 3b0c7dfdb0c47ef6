"""Generic instrumented search core shared by every explicit explorer.

The full, stubborn-set, generalized partial-order and timed state-class
analyzers are all thin :class:`SearchSpace` adapters driven by the single
budgeted loop in :mod:`repro.search.core`.  See DESIGN.md ("The search
core") for the architecture.
"""

from repro.search.core import (
    INSTRUMENTATION_FIELDS,
    SearchContext,
    SearchOutcome,
    SearchSpace,
    SearchStats,
    abort_note,
    explore,
    raise_if_bounded,
)
from repro.search.graph import ReachabilityGraph
from repro.search.limits import (
    Deadline,
    ExplorationLimitReached,
    TimeLimitReached,
    stopwatch,
)
from repro.search.observers import MarkingQueryObserver, SearchObserver
from repro.search.witness import DeadlockWitness, extract_witness

__all__ = [
    "INSTRUMENTATION_FIELDS",
    "Deadline",
    "DeadlockWitness",
    "ExplorationLimitReached",
    "MarkingQueryObserver",
    "ReachabilityGraph",
    "SearchContext",
    "SearchObserver",
    "SearchOutcome",
    "SearchSpace",
    "SearchStats",
    "TimeLimitReached",
    "abort_note",
    "explore",
    "extract_witness",
    "raise_if_bounded",
    "stopwatch",
]
