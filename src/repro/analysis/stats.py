"""Result records shared by all analyzers.

Every explorer (full, stubborn, symbolic, GPO, timed) returns an
:class:`AnalysisResult` so the harness can tabulate them uniformly: the
state/edge counts, deadlock verdict with an optional witness trace, wall
time, and analyzer-specific extras — which since the search-core refactor
always include the uniform instrumentation counters (``expanded``,
``peak_frontier``, ``mean_enabled``, ``states_per_second``; the
canonical key strings live in :mod:`repro.obs.names`, re-exported via
:data:`repro.obs.names.INSTRUMENTATION_FIELDS`).

The budget types (:class:`Deadline`, the limit exceptions, ``stopwatch``)
and :class:`DeadlockWitness` moved next to the generic exploration driver
in :mod:`repro.search`; they are re-exported here for compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs import names
from repro.search.limits import (
    Deadline,
    ExplorationLimitReached,
    TimeLimitReached,
    stopwatch,
)
from repro.search.witness import DeadlockWitness

__all__ = [
    "AnalysisResult",
    "Deadline",
    "DeadlockWitness",
    "ExplorationLimitReached",
    "TimeLimitReached",
    "stopwatch",
]


@dataclass
class AnalysisResult:
    """Uniform outcome of a verification run."""

    analyzer: str
    net_name: str
    states: int
    edges: int
    deadlock: bool
    #: Wall time of the whole run; set by the analyzer frame
    #: (:mod:`repro.analysis.frame`) around the body's search.
    time_seconds: float = 0.0
    witness: DeadlockWitness | None = None
    exhaustive: bool = True
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def expanded(self) -> int:
        """Expanded-state count under the canonical key, falling back to
        ``states`` for analyzers without an expansion notion (symbolic,
        unfolding) — the number the ``states_expanded`` metric reports."""
        return int(self.extras.get(names.EXPANDED, self.states))

    @property
    def peak_frontier(self) -> int:
        """Peak frontier size (0 for frontier-free analyzers)."""
        return int(self.extras.get(names.PEAK_FRONTIER, 0))

    @property
    def aborted(self) -> str | None:
        """The budget-overrun note, if the run was cut short."""
        note = self.extras.get(names.ABORTED)
        return None if note is None else str(note)

    @property
    def property_text(self) -> str | None:
        """Canonical text of the property this run answered, if any.

        ``None`` for legacy deadlock runs — the property layer leaves
        those byte-identical to the pre-layer output.
        """
        text = self.extras.get("property")
        return None if text is None else str(text)

    @property
    def property_holds(self) -> bool | None:
        """Three-valued property verdict (``None`` = inconclusive).

        Only meaningful when :attr:`property_text` is set; legacy
        deadlock runs express their verdict through ``deadlock`` /
        ``exhaustive`` instead.
        """
        if "property" not in self.extras:
            return None
        holds = self.extras.get("property_holds")
        return None if holds is None else bool(holds)

    @property
    def reduction(self) -> dict[str, Any] | None:
        """The structural-reduction provenance, when the run was reduced.

        The ``extras["reduce"]`` payload attached by the engine:
        ``pre``/``post`` net sizes (places, transitions, arcs), per-rule
        application counts, the preservation level/mode, and the full
        replayable trace.  ``None`` for unreduced runs.
        """
        payload = self.extras.get("reduce")
        return payload if isinstance(payload, dict) else None

    @property
    def verdict(self) -> str:
        """Short human-readable verdict string."""
        if "property" in self.extras:
            holds = self.property_holds
            if holds is True:
                return "property holds"
            if holds is False:
                return "property violated"
            return "property undecided (bounded)"
        if self.deadlock:
            return "DEADLOCK"
        return "deadlock-free" if self.exhaustive else "no deadlock found (bounded)"

    def describe(self) -> str:
        """One-line summary used by the CLI."""
        parts = [
            f"{self.analyzer}: {self.verdict}",
            f"states={self.states}",
            f"edges={self.edges}",
            f"time={self.time_seconds:.3f}s",
        ]
        for key, value in sorted(self.extras.items()):
            if key == "reduce" and isinstance(value, dict):
                # The payload carries the full trace; summarize it.
                pre = "/".join(str(n) for n in value.get("pre", ()))
                post = "/".join(str(n) for n in value.get("post", ()))
                parts.append(f"reduce={pre}->{post}@{value.get('level')}")
                continue
            parts.append(f"{key}={value}")
        return "  ".join(parts)
