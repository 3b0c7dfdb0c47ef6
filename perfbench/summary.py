"""Statistics shared by every workload."""

from __future__ import annotations

import math
import resource
import statistics

#: Set-ups per run, spread over the run; set-up time is their median.
SETUP_SAMPLES = 5

def median(values: list[float]) -> float:
    return float(statistics.median(values))


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank ``q`` quantile, or ``None`` when fewer than ten
    samples lie beyond it (too few to call it a tail)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0
