"""Verification job specifications and in-process execution.

A :class:`VerificationJob` bundles everything needed to run one analyzer
on one net — the net itself, the method name, a resource :class:`Budget`
and the query being decided — in a picklable form, so jobs can be shipped
to worker processes (:mod:`repro.engine.pool`), raced against each other
(:mod:`repro.engine.portfolio`) and used as cache keys
(:mod:`repro.engine.cache`).

:func:`execute_job` is the single place that maps a budget onto each
analyzer's keyword arguments.  Converting budget overruns into
non-exhaustive :class:`~repro.analysis.stats.AnalysisResult` values
(mirroring the paper's "> 24 hours" entries) is the analyzer frame's job
(:mod:`repro.analysis.frame`), so a direct ``analyze`` call and a job
report an overrun the same way.  ``execute_job`` runs a job in-process;
:meth:`repro.engine.pool.WorkerPool.run` runs a batch of them in isolated
workers (Table 1, the portfolio race).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis import analyze as full_analyze
from repro.analysis.stats import AnalysisResult
from repro.gpo import analyze as gpo_analyze
from repro.net.petrinet import PetriNet
from repro.obs import names
from repro.obs.names import INSTRUMENTATION_FIELDS
from repro.props.ast import Deadlock, Property, UnsupportedPropertyError, places_of
from repro.props.compat import reduction_level, unsupported_reason
from repro.props.eval import HOLDS_KEY, PROPERTY_KEY, as_property
from repro.props.normalize import property_hash
from repro.props.parse import parse_property
from repro.reduce.engine import MODES as REDUCE_MODES
from repro.reduce.engine import Reduction, reduce_net
from repro.reduce.trace import BackMapError, back_map_witness
from repro.search.core import abort_note
from repro.search.parallel import analyze_parallel
from repro.stubborn import analyze as stubborn_analyze
from repro.symbolic import analyze as symbolic_analyze
from repro.timed import analyze as timed_analyze
from repro.timed.tpn import TimedPetriNet
from repro.unfolding import analyze as unfolding_analyze

__all__ = [
    "ANALYZERS",
    "Budget",
    "JobResult",
    "VerificationJob",
    "execute_job",
    "instrumentation_of",
    "is_conclusive",
    "query_token",
]

#: Registered analyzers: name -> callable(net, **kwargs) -> AnalysisResult.
ANALYZERS: dict[str, Callable[..., AnalysisResult]] = {
    "full": full_analyze,
    "stubborn": stubborn_analyze,
    "symbolic": symbolic_analyze,
    "gpo": gpo_analyze,
    "unfolding": unfolding_analyze,
    # Sharded level-synchronized BFS; the shard count rides
    # ``Budget.extra`` (e.g. ``{"shards": 4}``).
    "parallel": analyze_parallel,
    # State classes of a TimedPetriNet; a plain net runs as its untimed
    # wrapper (every interval [0, inf)), whose classes are its markings.
    "timed": timed_analyze,
}

#: The keyword each analyzer takes for ``Budget.max_states`` (``None``:
#: symbolic has no explicit state count to bound; wall clock only).
_STATE_BOUND: dict[str, str | None] = {
    "symbolic": None,
    "unfolding": "max_events",
    "timed": "max_classes",
}


@dataclass(frozen=True)
class Budget:
    """Resource budget applied to one analyzer run.

    ``max_states`` limits explicit explorers (full/stubborn/gpo, and the
    unfolding's event count); ``max_seconds`` limits wall time — enforced
    cooperatively inside every exploration loop, and by hard process
    preemption when the run goes through :class:`repro.engine.pool.WorkerPool`.
    ``None`` disables the corresponding limit.
    """

    max_states: int | None = 200_000
    max_seconds: float | None = 120.0
    extra: dict[str, Any] = field(default_factory=dict)

    def cache_token(self) -> str:
        """Stable string form of the budget for cache keys."""
        extra = ",".join(f"{k}={self.extra[k]!r}" for k in sorted(self.extra))
        return f"states={self.max_states};seconds={self.max_seconds};{extra}"


def query_token(query: str) -> str:
    """Stable cache token for a query string.

    The canonical property hash, so semantically equal queries
    (``reachable(a&b)`` vs ``reachable(b & a)``) share cache entries.
    Unparseable text falls back to the raw string — the job will fail at
    execution, but the key stays total.
    """
    try:
        return property_hash(parse_property(query))
    except ValueError:
        return f"raw:{query}"


@dataclass(frozen=True)
class VerificationJob:
    """One unit of verification work: run ``method`` on ``net``.

    Jobs are immutable and picklable; ``query`` is the property being
    decided, in the :mod:`repro.props` query language (``"deadlock"``,
    the paper's Table 1 question, is the default).  An unknown ``method``
    or ``reduce`` mode raises :class:`ValueError` here, before any worker
    is forked for the job.

    ``net`` may be a :class:`~repro.timed.tpn.TimedPetriNet` only for
    the ``timed`` method and without reduction: the reduction rules do
    not preserve timing.
    """

    net: PetriNet | TimedPetriNet
    method: str = "gpo"
    budget: Budget = field(default_factory=Budget)
    query: str = "deadlock"
    reduce: str = "off"

    def __post_init__(self) -> None:
        if self.method not in ANALYZERS:
            raise ValueError(
                f"unknown analyzer {self.method!r}; expected one of "
                f"{sorted(ANALYZERS)}"
            )
        if self.reduce not in REDUCE_MODES:
            raise ValueError(
                f"unknown reduce mode {self.reduce!r}; expected one of "
                f"{REDUCE_MODES}"
            )
        if isinstance(self.net, TimedPetriNet) and (
            self.method != "timed" or self.reduce != "off"
        ):
            raise ValueError(
                "a TimedPetriNet runs only the timed analyzer, without "
                f"reduction (got method={self.method!r}, "
                f"reduce={self.reduce!r})"
            )

    @property
    def label(self) -> str:
        """Short human-readable identifier used in logs and events."""
        return f"{self.net.name}/{self.method}"

    def reduction(self) -> Reduction | None:
        """The structural reduction this job runs under, or ``None``.

        Memoized on the net instance, so the cache-key computation and
        the execution (and every method racing on the same net) share
        one fixpoint run.  ``None`` when reduction is off or the query
        does not parse — the job then runs (and fails) on the original
        net, keeping the key total.
        """
        if self.reduce == "off" or isinstance(self.net, TimedPetriNet):
            return None
        try:
            prop = as_property(self.query)
        except ValueError:
            return None
        return reduce_net(
            self.net,
            level=reduction_level(prop),
            mode=self.reduce,
            protect=places_of(prop),
        )

    def cache_key_material(self) -> str:
        """The text whose hash keys the on-disk result cache.

        Built on the net's canonical structural hash, so declaration order
        does not fragment the cache, and on the *canonical property hash*
        of the query, so textual variants of one property share entries
        while different properties on the same net never collide.  The
        structural safety certificate is deliberately *not* part of the
        key: it is a deterministic function of exactly the structure and
        initial marking the canonical hash already covers, so equal
        hashes imply equal certificates and adding it could only fragment
        the cache, never disambiguate it.

        Reduced jobs use ``v3`` material stamping the reduce mode, the
        reduced net's canonical hash and the trace hash: results that
        rode different reductions never share an entry, and unreduced
        keys stay byte-identical to v2 (no cache invalidation for the
        default path).
        """
        lines = [
            "v2",
            self.net.canonical_hash(),
            f"method={self.method}",
            f"property={query_token(self.query)}",
            self.budget.cache_token(),
        ]
        if self.reduce != "off":
            lines[0] = "v3"
            lines.append(f"reduce={self.reduce}")
            reduction = self.reduction()
            if reduction is None:
                lines.append("reduced=unparsed")
            else:
                lines.append(f"reduced={reduction.net.canonical_hash()}")
                lines.append(f"trace={reduction.trace.trace_hash()}")
        return "\n".join(lines)


@dataclass
class JobResult:
    """Outcome of one job, as observed by the execution engine.

    ``status`` is one of:

    * ``"ok"`` — the analyzer ran to completion (possibly reporting a
      non-exhaustive, budget-bounded result);
    * ``"cached"`` — served from the result cache without recomputation;
    * ``"killed"`` — hard-preempted by the worker pool at its deadline;
    * ``"cancelled"`` — terminated because a portfolio race was already
      decided by another analyzer;
    * ``"error"`` — the worker raised (e.g. ``UnsafeNetError``) or died.
    """

    job: VerificationJob
    result: AnalysisResult
    status: str = "ok"
    wall_seconds: float = 0.0
    peak_rss_kb: int | None = None
    worker_pid: int | None = None
    error: str | None = None

    @property
    def ran(self) -> bool:
        """True when the analyzer actually produced its own result."""
        return self.status in ("ok", "cached")


def instrumentation_of(result: AnalysisResult) -> dict[str, Any]:
    """The search-core instrumentation counters present in ``extras``.

    Every driver-based analyzer records the uniform counters
    (:data:`repro.obs.names.INSTRUMENTATION_FIELDS`); analyzers without
    an explicit search (symbolic) contribute nothing.  Used to attach a
    ``stats`` payload to the ``finished`` JSONL event of each job.
    """
    return {
        key: result.extras[key]
        for key in INSTRUMENTATION_FIELDS
        if key in result.extras
    }


def is_conclusive(result: AnalysisResult | None) -> bool:
    """Does this result decide the question it was asked?

    Property runs carry a three-valued verdict in
    ``extras["property_holds"]`` — conclusive iff it is not ``None``.
    Legacy deadlock runs: a deadlock found in a bounded search is still a
    definite "yes"; a deadlock-free verdict is only definite when the
    search was exhaustive.
    """
    if result is None:
        return False
    if PROPERTY_KEY in result.extras:
        return result.extras.get(HOLDS_KEY) is not None
    return result.deadlock or result.exhaustive


def execute_job(job: VerificationJob) -> AnalysisResult:
    """Run one job in-process under its budget; never raises on overruns.

    The analyzer frame (:mod:`repro.analysis.frame`) absorbs overruns: the
    returned result then has ``exhaustive=False``, ``states`` equal to the
    progress actually made when the analyzer gave up and an
    ``extras["aborted"]`` note.  The job's clock starts before the
    reduction pre-pass: ``time_seconds`` is the wall time of the whole
    job, and the analyzer gets what the reduction left of
    ``max_seconds``.
    """
    start = time.perf_counter()
    fn = ANALYZERS[job.method]
    # PropertyError is a ValueError, so malformed queries reject the job
    # the same way unknown analyzers do.
    prop: Property | None = as_property(job.query)
    if isinstance(prop, Deadlock):
        # The native question: run the historical analyzer path unchanged
        # (same extras, same Table 1 bytes).
        prop = None
    else:
        reason = unsupported_reason(job.method, prop)
        if reason is not None:
            raise UnsupportedPropertyError(job.method, prop, reason)
    # Structural reduction pre-pass: the analyzer explores the reduced
    # net, and the answer is mapped back below before anyone sees it.
    reduction = job.reduction()
    net = job.net if reduction is None else reduction.net

    budget = job.budget
    kwargs: dict[str, Any] = dict(budget.extra)
    if prop is not None:
        kwargs["prop"] = prop
    state_bound = _STATE_BOUND.get(job.method, "max_states")
    if state_bound is not None and budget.max_states is not None:
        kwargs.setdefault(state_bound, budget.max_states)
    left = None
    if budget.max_seconds is not None:
        left = max(0.0, budget.max_seconds - (time.perf_counter() - start))
        kwargs.setdefault("max_seconds", left)

    result = fn(net, **kwargs)
    if left is not None and result.extras.get(names.ABORTED) == abort_note(
        "time-budget", max_seconds=left
    ):
        # The note names the job's budget, not the share the analyzer got.
        result.extras[names.ABORTED] = abort_note(
            "time-budget", max_seconds=budget.max_seconds
        )
    result = _attach_reduction(job, reduction, result)
    result.time_seconds = time.perf_counter() - start
    return result


def _attach_reduction(
    job: VerificationJob,
    reduction: Reduction | None,
    result: AnalysisResult,
) -> AnalysisResult:
    """Stamp reduction provenance and map the witness back, if any.

    Every reduced result carries ``extras["reduce"]`` (sizes, rule
    counts, the full trace) so the cache, the JSONL event stream and the
    serve wire format all return original-net provenance.  A witness
    found on the reduced net is translated — and replay- or
    dead-verified — on the original; a mapping failure is recorded
    rather than silently shipping a reduced-net witness as original.
    """
    if reduction is None:
        return result
    extras = reduction.stats_extras()
    if result.witness is not None and reduction.reduced:
        try:
            result.witness = back_map_witness(
                job.net, reduction.trace, result.witness
            )
        except BackMapError as exc:
            extras["replay_error"] = str(exc)
    result.extras["reduce"] = extras
    return result
