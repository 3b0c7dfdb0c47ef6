"""Explicit-state analysis: full reachability and deadlock checks.

This package is the paper's Section 2.2 substrate — conventional analysis —
and the reference semantics every reduced analyzer is validated against.
Marking properties (reachability, invariants, 1-safety) are asked through
:mod:`repro.props` (``repro.query`` / ``analyze(prop=...)``).
"""

from repro.analysis.reachability import (
    analyze,
    dead_transitions,
    explore,
    fired_edges,
    reachable_markings,
)
from repro.analysis.stats import (
    AnalysisResult,
    DeadlockWitness,
    ExplorationLimitReached,
    TimeLimitReached,
    stopwatch,
)

__all__ = [
    "explore",
    "analyze",
    "reachable_markings",
    "dead_transitions",
    "fired_edges",
    "AnalysisResult",
    "DeadlockWitness",
    "ExplorationLimitReached",
    "TimeLimitReached",
    "stopwatch",
]
