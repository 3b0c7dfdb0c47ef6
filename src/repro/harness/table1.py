"""Regeneration of the paper's Table 1.

For every instance of the four benchmark families the harness runs:

* **full** explicit reachability — the "States" column;
* **stubborn** (partial-order reduced) — the "SPIN+PO" columns;
* **symbolic** (BDD) — the "SMV" columns (peak BDD nodes + time);
* **gpo** — the "GPO" columns (GPN states + time).

The paper's published values are kept in :data:`PAPER_TABLE1` so reports
and tests can compare shapes side by side.  Absolute values are *not*
expected to match (different decade, different host, reconstructed
models — see EXPERIMENTS.md); the assertions in the benchmark suite check
the qualitative claims instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.analysis.stats import AnalysisResult
from repro.engine.cache import ResultCache
from repro.engine.events import EventSink
from repro.engine.jobs import Budget, VerificationJob, execute_job
from repro.engine.pool import WorkerPool
from repro.harness.report import format_number, format_table
from repro.models import asat, nsdp, over, rw
from repro.net.petrinet import PetriNet
from repro.obs import names

__all__ = [
    "PROBLEMS",
    "DEFAULT_SIZES",
    "PAPER_TABLE1",
    "Table1Row",
    "run_table1",
    "format_table1",
]

#: Benchmark constructors by problem name.
PROBLEMS: Mapping[str, Callable[[int], PetriNet]] = {
    "NSDP": nsdp,
    "ASAT": asat,
    "OVER": over,
    "RW": rw,
}

#: The instance sizes Table 1 reports.
DEFAULT_SIZES: Mapping[str, tuple[int, ...]] = {
    "NSDP": (2, 4, 6, 8, 10),
    "ASAT": (2, 4, 8),
    "OVER": (2, 3, 4, 5),
    "RW": (6, 9, 12, 15),
}

#: Published values: (full states, SPIN+PO states, SPIN+PO time,
#: SMV peak BDD size, SMV time, GPO states, GPO time).  ``None`` encodes
#: the paper's "> 24 hours" entries.
PAPER_TABLE1: Mapping[tuple[str, int], tuple] = {
    ("NSDP", 2): (18, 12, 0.08, 1068, 0.04, 3, 0.01),
    ("NSDP", 4): (322, 110, 0.13, 10018, 0.22, 3, 0.03),
    ("NSDP", 6): (5778, 1422, 1.07, 52320, 8.97, 3, 0.04),
    ("NSDP", 8): (103682, 19270, 25.62, 687263, 1169.30, 3, 0.05),
    ("NSDP", 10): (1_860_000, 239308, 453.16, None, None, 3, 0.06),
    ("ASAT", 2): (88, 33, 0.08, 1587, 0.05, 8, 0.01),
    ("ASAT", 4): (7822, 192, 0.11, 117667, 79.61, 14, 0.06),
    ("ASAT", 8): (1_580_000, 3598, 1.12, None, None, 23, 0.35),
    ("OVER", 2): (65, 28, 0.09, 3511, 0.08, 6, 0.01),
    ("OVER", 3): (519, 107, 0.13, 10203, 0.19, 7, 0.02),
    ("OVER", 4): (4175, 467, 0.44, 11759, 0.64, 8, 0.04),
    ("OVER", 5): (33460, 2059, 2.05, 24860, 3.59, 9, 0.06),
    ("RW", 6): (72, 72, 0.06, 3689, 0.09, 2, 0.05),
    ("RW", 9): (523, 523, 1.51, 9886, 0.16, 2, 0.20),
    ("RW", 12): (4110, 4110, 16.89, 10037, 0.28, 2, 0.61),
    ("RW", 15): (29642, 29642, 194.33, 10267, 0.43, 2, 1.50),
}


@dataclass
class Table1Row:
    """Measured values of one Table 1 row.

    ``stats`` holds the search-core instrumentation of the row's analyzer
    runs — the full explorer's states/sec, the stubborn reduction ratio,
    the mean GPO scenario-family size — rendered by
    ``format_table1(..., with_stats=True)``.
    """

    problem: str
    size: int
    full_states: int | None
    spin_states: int | None
    spin_time: float | None
    smv_peak: int | None
    smv_time: float | None
    gpo_states: int
    gpo_time: float
    deadlock: bool
    stats: dict = field(default_factory=dict)

    def net_size_cell(self) -> str:
        """``P/T/A`` sizes; ``pre->post`` when a reduction ran."""
        pre = self.stats.get("net_pre")
        post = self.stats.get("net_post")
        if not pre:
            return "-"
        pre_text = "/".join(str(n) for n in pre)
        if not post or list(post) == list(pre):
            return pre_text
        return pre_text + "->" + "/".join(str(n) for n in post)

    def cells(self, *, with_stats: bool = False) -> list[str]:
        out = [
            f"{self.problem}({self.size})",
            format_number(self.full_states),
            format_number(self.spin_states),
            format_number(self.spin_time),
            format_number(self.smv_peak),
            format_number(self.smv_time),
            format_number(self.gpo_states),
            format_number(self.gpo_time),
            "yes" if self.deadlock else "no",
        ]
        if with_stats:
            out.extend(
                format_number(self.stats.get(key))
                for key in ("full_rate", "po_ratio", "po_iter", "gpo_scen")
            )
            out.append(self.net_size_cell())
        return out


#: Column order the four analyzers contribute to a Table 1 row.
_ANALYZER_ORDER = ("full", "stubborn", "symbolic", "gpo")


def _assemble_row(
    problem: str, size: int, results: Mapping[str, AnalysisResult]
) -> Table1Row:
    """Build a :class:`Table1Row` from per-analyzer results.

    Shared by the sequential and the pooled execution paths so that
    ``--jobs N`` produces exactly the same rows as ``--jobs 1``.
    """
    full = results.get("full")
    spin = results.get("stubborn")
    smv = results.get("symbolic")
    gpo = results.get("gpo")
    stats: dict = {}
    if full is not None:
        stats["full_rate"] = full.extras.get(names.STATES_PER_SECOND)
    if spin is not None:
        stats["po_ratio"] = spin.extras.get(names.STUBBORN_RATIO)
        stats["po_iter"] = spin.extras.get(
            names.STUBBORN_CLOSURE_ITERATIONS
        )
    if gpo is not None:
        stats["gpo_scen"] = gpo.extras.get(names.MEAN_SCENARIOS)
    for result in results.values():
        reduction = result.reduction
        if reduction is not None:
            stats["net_pre"] = reduction.get("pre")
            stats["net_post"] = reduction.get("post")
            break
    return Table1Row(
        problem=problem,
        size=size,
        full_states=(full.states if full and full.exhaustive else None),
        spin_states=(spin.states if spin and spin.exhaustive else None),
        spin_time=spin.time_seconds if spin else None,
        smv_peak=(
            smv.extras.get("peak_bdd_nodes") if smv and smv.exhaustive else None
        ),
        smv_time=smv.time_seconds if smv else None,
        gpo_states=gpo.states if gpo else 0,
        gpo_time=gpo.time_seconds if gpo else 0.0,
        deadlock=gpo.deadlock if gpo else False,
        stats={k: v for k, v in stats.items() if v is not None},
    )


def _instance_specs(
    problems: Iterable[str] | None,
    sizes: Mapping[str, Iterable[int]] | None,
) -> list[tuple[str, int]]:
    specs: list[tuple[str, int]] = []
    for problem in problems or PROBLEMS:
        wanted_sizes = (
            sizes.get(problem, DEFAULT_SIZES[problem])
            if sizes
            else DEFAULT_SIZES[problem]
        )
        specs.extend((problem, size) for size in wanted_sizes)
    return specs


def run_table1(
    *,
    problems: Iterable[str] | None = None,
    sizes: Mapping[str, Iterable[int]] | None = None,
    budget: Budget | None = None,
    analyzers: Iterable[str] = _ANALYZER_ORDER,
    jobs: int = 1,
    cache: ResultCache | None = None,
    events: EventSink | None = None,
    reduce: str = "off",
) -> list[Table1Row]:
    """Run the whole table (or a selection) and return measured rows.

    Every (instance, analyzer) cell becomes a :class:`VerificationJob`.
    With ``jobs <= 1`` and no ``cache`` / ``events`` sink the jobs run
    in-process through :func:`execute_job`; otherwise they run through
    the :class:`~repro.engine.pool.WorkerPool` — analyzer runs are
    process-isolated, hard-preempted at their deadline, cached by
    canonical structural hash, and logged as JSONL lifecycle events.  Row
    assembly is deterministic regardless of completion order.
    """
    specs = _instance_specs(problems, sizes)
    wanted = [name for name in _ANALYZER_ORDER if name in set(analyzers)]
    job_budget = budget if budget is not None else Budget()
    job_list: list[VerificationJob] = []
    keys: list[tuple[str, int, str]] = []
    for problem, size in specs:
        net = PROBLEMS[problem](size)
        for name in wanted:
            job_list.append(
                VerificationJob(
                    net=net, method=name, budget=job_budget, reduce=reduce
                )
            )
            keys.append((problem, size, name))
    if jobs <= 1 and cache is None and events is None:
        results = [execute_job(job) for job in job_list]
    else:
        pool = WorkerPool(max_workers=jobs, cache=cache, events=events)
        results = [outcome.result for outcome in pool.run(job_list)]
    per_instance: dict[tuple[str, int], dict[str, AnalysisResult]] = {}
    for (problem, size, name), result in zip(keys, results):
        per_instance.setdefault((problem, size), {})[name] = result
    return [
        _assemble_row(problem, size, per_instance.get((problem, size), {}))
        for problem, size in specs
    ]


def format_table1(
    rows: Iterable[Table1Row],
    *,
    with_paper: bool = True,
    with_stats: bool = False,
) -> str:
    """Render measured rows, optionally side by side with the 1998 values.

    ``with_stats`` appends the instrumentation columns (full states/sec,
    stubborn reduction ratio, stubborn closure-loop iterations, mean GPO
    scenario-family size, and the net's P/T/A sizes — shown as
    ``pre->post`` when a structural reduction ran) to the measured table
    only — the paper published none of these.
    """
    rows = list(rows)
    headers = [
        "Problem",
        "States",
        "PO-St",
        "PO-t(s)",
        "BDD-peak",
        "BDD-t(s)",
        "GPO-St",
        "GPO-t(s)",
        "dead",
    ]
    measured_headers = headers + (
        ["full-St/s", "PO-ratio", "PO-iter", "GPO-scen", "net P/T/A"]
        if with_stats
        else []
    )
    out = format_table(
        measured_headers,
        [row.cells(with_stats=with_stats) for row in rows],
        title="Table 1 (measured; '-' = budget exceeded)",
    )
    if with_paper:
        paper_rows = []
        for row in rows:
            key = (row.problem, row.size)
            if key not in PAPER_TABLE1:
                continue
            full, spin, spin_t, smv, smv_t, gpo_s, gpo_t = PAPER_TABLE1[key]
            paper_rows.append(
                [
                    f"{row.problem}({row.size})",
                    format_number(full),
                    format_number(spin),
                    format_number(spin_t),
                    format_number(smv),
                    format_number(smv_t),
                    format_number(gpo_s),
                    format_number(gpo_t),
                    "",
                ]
            )
        out += "\n" + format_table(
            headers,
            paper_rows,
            title="Table 1 (paper, 1998; '-' = > 24 hours)",
        )
    return out
