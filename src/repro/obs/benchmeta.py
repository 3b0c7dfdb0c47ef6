"""Shared provenance stamp for benchmark artifacts.

Benchmark numbers are only comparable when each artifact says *where*
it came from: the same run differs 3x between a laptop and a CI runner,
and a regression is only a regression against the same commit lineage.

:func:`bench_metadata` builds the ``"meta"`` mapping (host, platform,
cpu_count, git commit, timestamp); ``perfbench/run.py`` records it with
every result.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from typing import Any

__all__ = ["BENCH_META_SCHEMA_VERSION", "bench_metadata"]

#: Version of the ``meta`` mapping layout stamped into BENCH files.
BENCH_META_SCHEMA_VERSION = 1


def _git_commit() -> str | None:
    """The current short commit hash, or ``None`` outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = proc.stdout.strip()
    return commit if proc.returncode == 0 and commit else None


def bench_metadata() -> dict[str, Any]:
    """The provenance mapping stamped into every benchmark file."""
    return {
        "schema": BENCH_META_SCHEMA_VERSION,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
        "host": platform.node(),
        "cpu_count": os.cpu_count(),
        "commit": _git_commit(),
        "generated_at": round(time.time(), 3),
    }

