"""Job sets of the four workloads and the known-answer checks.

Every job is a (analyzer, Table 1 instance) pair.  The in-process
workloads run the same job list on every seed; the seed only fixes the
order the jobs run in, so two runs with different seeds do the same
work.  The served workload draws from the seed the order each of its
phases sends the job pool in, and so which jobs meet in the queue.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Every Table 1 instance, in the paper's row order.
TABLE1 = (
    ("NSDP", 2), ("NSDP", 4), ("NSDP", 6), ("NSDP", 8), ("NSDP", 10),
    ("ASAT", 2), ("ASAT", 4), ("ASAT", 8),
    ("OVER", 2), ("OVER", 3), ("OVER", 4), ("OVER", 5),
    ("RW", 6), ("RW", 9), ("RW", 12), ("RW", 15),
)

#: Budget of every in-process job: far above what any job needs, so no
#: job ever ends on a limit.
MAX_STATES = 200_000
MAX_SECONDS = 120.0

#: Two forked shards with numpy batch expansion ("auto": the scalar
#: fallback runs when numpy is absent; the provenance stamp says which).
PARALLEL_EXTRA = {"shards": 2, "batch": "auto", "workers": "fork"}


def label(family: str, size: int) -> str:
    return f"{family}({size})"


@dataclass(frozen=True)
class Job:
    """One in-process job: ``analyzer`` on a fresh ``family(size)`` net."""

    analyzer: str
    family: str
    size: int
    extra: dict[str, Any] = field(default_factory=dict, hash=False)

    @property
    def instance(self) -> str:
        return label(self.family, self.size)

    @property
    def name(self) -> str:
        return f"{self.analyzer}/{self.instance}"


def _explicit_jobs() -> list[Job]:
    # ASAT(8) is left to table1-gpo: its structural certificate alone
    # costs seconds, and this workload must keep the certificate small.
    # NSDP(10) runs past 200k states under both full and stubborn.
    sized = [(f, n) for f, n in TABLE1 if (f, n) not in (("ASAT", 8), ("NSDP", 10))]
    jobs = [Job(a, f, n) for a in ("full", "stubborn") for f, n in sized]
    jobs += [Job("parallel", f, n, dict(PARALLEL_EXTRA)) for f, n in (("NSDP", 8), ("RW", 15))]
    jobs += [Job("unfolding", f, n) for f, n in (("ASAT", 4), ("OVER", 4), ("OVER", 5), ("RW", 9))]
    return jobs


def _symbolic_jobs() -> list[Job]:
    # Larger sizes are left out for run length only (symbolic NSDP(8)
    # and RW(15) take tens of seconds each).
    keep = {"NSDP": (2, 4, 6), "ASAT": (2, 4), "OVER": (2, 3, 4, 5), "RW": (6, 9, 12)}
    return [Job("symbolic", f, n) for f, n in TABLE1 if n in keep[f]]


IN_PROCESS = {
    "table1-gpo": lambda: [Job("gpo", f, n) for f, n in TABLE1],
    "table1-explicit": _explicit_jobs,
    "table1-symbolic": _symbolic_jobs,
}

SERVED = "served-mix"
WORKLOADS = (*IN_PROCESS, SERVED)


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's jobs in the order the seed draws."""
    jobs = IN_PROCESS[workload]()
    random.Random(seed).shuffle(jobs)
    return jobs


def build_net(family: str, size: int) -> Any:
    from repro.models import asat, nsdp, over, rw

    return {"NSDP": nsdp, "ASAT": asat, "OVER": over, "RW": rw}[family](size)


# ----------------------------------------------------------------------
# Known answers
# ----------------------------------------------------------------------
def load_expected(path: Path) -> dict[str, Any]:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def expected_states(expected: dict[str, Any], job: Job) -> int | None:
    row = expected["table1"][job.instance]
    if job.analyzer in ("symbolic", "parallel"):
        return row["full"]
    if job.analyzer == "unfolding":
        return expected["unfolding_events"].get(job.instance)
    return row[job.analyzer]


def check_result(expected: dict[str, Any], job: Job, result: Any) -> str | None:
    """Why ``result`` is wrong for ``job``, or ``None`` when it is right.

    A result is right when it is decided (exhaustive), its deadlock
    verdict and state count equal the known answers and, for the
    symbolic analyzer, its BDD peak equals Table 1's.
    """
    row = expected["table1"].get(job.instance)
    if row is None:
        return f"{job.name}: no known answer"
    if not result.exhaustive:
        return f"{job.name}: undecided ({result.extras.get('aborted')})"
    if result.deadlock != row["deadlock"]:
        return f"{job.name}: deadlock={result.deadlock}, expected {row['deadlock']}"
    want = expected_states(expected, job)
    if want is None:
        return f"{job.name}: no known state count"
    if result.states != want:
        return f"{job.name}: states={result.states}, expected {want}"
    if job.analyzer == "symbolic":
        peak = result.extras.get("peak_bdd_nodes")
        if peak != row["bdd_peak"]:
            return f"{job.name}: peak_bdd_nodes={peak}, expected {row['bdd_peak']}"
    return None


# ----------------------------------------------------------------------
# Served workload
# ----------------------------------------------------------------------
#: Small Table 1 instances: every served job finishes in well under a
#: second, so latency is dominated by the serving path plus the search.
SERVED_INSTANCES = (
    ("NSDP", 2), ("NSDP", 4),
    ("ASAT", 2), ("ASAT", 4),
    ("OVER", 2), ("OVER", 3), ("OVER", 4), ("OVER", 5),
    ("RW", 6), ("RW", 9),
)


@dataclass(frozen=True)
class ServedJob:
    family: str
    size: int
    method: str
    query: str
    reduce: str

    @property
    def name(self) -> str:
        return f"{self.method}/{label(self.family, self.size)}/{self.query}/reduce={self.reduce}"


def served_jobs(expected: dict[str, Any]) -> list[ServedJob]:
    """The job pool: 10 instances x 10 method/question/reduce
    combinations = 100 distinct jobs.

    Stubborn sets preserve deadlocks only, so stubborn jobs ask the
    deadlock question alone.
    """
    jobs = []
    for family, size in SERVED_INSTANCES:
        prop = expected["served_properties"][family]["query"]
        for reduce in ("off", "auto"):
            for method, query in (
                ("gpo", "deadlock"), ("gpo", prop),
                ("full", "deadlock"), ("full", prop),
                ("stubborn", "deadlock"),
            ):
                jobs.append(ServedJob(family, size, method, query, reduce))
    return jobs


def served_order(count: int, seed: int, phase: str) -> list[int]:
    """The order one phase sends the pool in, drawn from the seed."""
    order = list(range(count))
    random.Random(f"{seed}/{phase}").shuffle(order)
    return order


def expected_verdict(expected: dict[str, Any], job: ServedJob) -> str:
    """The verdict string the daemon must report for ``job``."""
    if job.query == "deadlock":
        deadlocks = expected["table1"][label(job.family, job.size)]["deadlock"]
        return "DEADLOCK" if deadlocks else "deadlock-free"
    holds = expected["served_properties"][job.family]["holds"]
    return "property holds" if holds else "property violated"
