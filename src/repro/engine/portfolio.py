"""Portfolio verification: race several analyzers, keep the first answer.

The paper's Table 1 shows that no single analyzer dominates — the BDD
engine wins on RW, GPO wins everywhere its reductions apply, explicit
search wins on tiny instances.  Like SMPT's portfolio of reachability
methods, :func:`run_race` starts several analyzers on the same net in
isolated worker processes, returns as soon as one produces a *conclusive*
verdict (a deadlock found, or an exhaustive deadlock-free search) and
terminates the losers.  The race is a :meth:`WorkerPool.run` call that
stops at the first conclusive outcome, so it shares the pool's cache
probe, preemption and lifecycle events.

With ``jobs=1`` the race degenerates to a **deterministic sequential
fallback**: a one-worker pool runs methods one at a time in the order
given, stopping at the first conclusive result — useful for reproducible
CI runs and machines without spare cores.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.cache import ResultCache
from repro.engine.events import EventSink
from repro.engine.jobs import Budget, JobResult, VerificationJob, is_conclusive
from repro.engine.pool import WorkerPool
from repro.net.petrinet import PetriNet
from repro.obs import names
from repro.obs.context import current_context, new_trace_context, use_context
from repro.obs.tracer import current_tracer
from repro.props.compat import filter_methods
from repro.props.eval import as_property
from repro.timed.tpn import TimedPetriNet

__all__ = ["DEFAULT_PORTFOLIO", "RaceOutcome", "run_race"]

#: Default portfolio, cheapest-reduction-first.
DEFAULT_PORTFOLIO: tuple[str, ...] = ("gpo", "symbolic", "stubborn", "full")


@dataclass
class RaceOutcome:
    """Result of racing a portfolio of analyzers on one net."""

    net_name: str
    methods: tuple[str, ...]
    winner: JobResult | None
    results: list[JobResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    query: str = "deadlock"
    #: Methods removed before the race because their reduction does not
    #: preserve the queried property, with the declared reason.
    dropped: tuple[tuple[str, str], ...] = ()

    @property
    def conclusive(self) -> bool:
        return self.winner is not None

    def describe(self) -> str:
        """Multi-line human-readable summary (CLI output)."""
        lines = []
        for outcome in self.results:
            marker = (
                "*"
                if self.winner is not None
                and outcome.job.method == self.winner.job.method
                else " "
            )
            lines.append(
                f" {marker} {outcome.job.method:<9} [{outcome.status}] "
                f"{outcome.result.verdict}  states={outcome.result.states}  "
                f"time={outcome.wall_seconds:.3f}s"
            )
        for method, reason in self.dropped:
            lines.append(f"   {method:<9} [dropped] {reason}")
        verdict = (
            self.winner.result.verdict if self.winner else "INCONCLUSIVE"
        )
        query_note = "" if self.query == "deadlock" else f" [{self.query}]"
        header = (
            f"race on {self.net_name}{query_note}: {verdict} "
            f"(wall={self.wall_seconds:.3f}s, methods={','.join(self.methods)})"
        )
        return "\n".join([header, *lines])


def run_race(
    net: PetriNet | TimedPetriNet,
    *,
    methods: Sequence[str] = DEFAULT_PORTFOLIO,
    budget: Budget | None = None,
    jobs: int = 2,
    cache: ResultCache | None = None,
    events: EventSink | None = None,
    query: str = "deadlock",
    reduce: str = "off",
    shards: int | None = None,
) -> RaceOutcome:
    """Race ``methods`` on ``net``; first conclusive verdict wins.

    ``jobs`` bounds how many analyzers run concurrently.  ``jobs=1``
    selects the deterministic sequential fallback.  ``results`` lists
    the methods that started or hit the cache, in portfolio order;
    methods that never started because the race was already decided are
    omitted.

    ``query`` is a :mod:`repro.props` property.  Methods whose reduction
    does not preserve the queried fragments (per
    :func:`repro.props.compat.filter_methods`) are dropped up front and
    reported in ``RaceOutcome.dropped`` — e.g. stubborn never races a
    ``reachable`` query.  Screen-only methods (GPO on reachability) stay
    in: their hits are conclusive wins, their clean screens simply never
    win the race.

    ``reduce`` (``"off"`` | ``"auto"`` | ``"aggressive"``) runs the
    structural reduction pre-pass once, up front, so every raced method
    explores the same reduced net; each job's result carries the trace
    and maps its witness back to the original (see
    :mod:`repro.reduce`).

    ``shards`` (``gpo query --shards N``) enters the sharded parallel
    explorer (:mod:`repro.search.parallel`) in the race as an extra
    ``"parallel"`` entry — it answers the deadlock question only, so
    the compat filter drops it from property races with a reason like
    any other method.  The shard count rides the job's budget extras,
    keeping cache keys distinct per shard count.
    """
    if budget is None:
        budget = Budget()
    prop = as_property(query)
    canonical = prop.text()
    method_list = list(methods)
    if shards is not None and shards > 1 and "parallel" not in method_list:
        method_list.append("parallel")
    kept, dropped = filter_methods(method_list, prop)
    parallel_budget = budget
    if shards is not None and shards > 1:
        parallel_budget = Budget(
            max_states=budget.max_states,
            max_seconds=budget.max_seconds,
            extra={**budget.extra, "shards": shards},
        )
    job_specs = [
        VerificationJob(
            net=net,
            method=m,
            budget=parallel_budget if m == "parallel" else budget,
            query=canonical,
            reduce=reduce,
        )
        for m in kept
    ]
    if reduce != "off" and job_specs:
        # Warm the memoized fixpoint in-process, once: cache-key
        # computation and the forked workers all reuse this one run.
        job_specs[0].reduction()
    started_at = time.perf_counter()
    tracer = current_tracer()
    # A race is one logical request: mint a trace context when the caller
    # (the serve daemon, a profiled run) did not already install one, so
    # the race's spans and lifecycle events share one trace_id.
    ctx = current_context()
    if ctx is None and tracer.enabled:
        ctx = new_trace_context()
    with use_context(ctx):
        with tracer.span(
            names.SPAN_RACE, net=net.name, methods=",".join(kept), jobs=jobs
        ) as race_span:
            pool = WorkerPool(jobs, cache=cache, events=events)
            results = pool.run(job_specs, until=_decides)
            winner = next(filter(_decides, results), None)
            race_span.set(
                winner=winner.job.method if winner is not None else None,
                conclusive=winner is not None,
            )
    return RaceOutcome(
        net_name=net.name,
        methods=kept,
        winner=winner,
        results=results,
        wall_seconds=time.perf_counter() - started_at,
        query=canonical,
        dropped=dropped,
    )


def _decides(outcome: JobResult) -> bool:
    """Does this outcome end the race?  The analyzer's own conclusive
    verdict does; a killed, cancelled or crashed run never does."""
    return outcome.ran and is_conclusive(outcome.result)
