"""Sharded, level-synchronized parallel BFS over packed markings.

The scalar explorers walk one frontier in one process.  This module
hash-partitions the state space across ``N`` shards — the owner of a
packed marking is ``state_key(bits) % shards`` with the canonical
splitmix64 fold of :mod:`repro.net.batch` — and explores it as a
sequence of **level barriers**:

1. every shard expands its current frontier (scalar kernel loop, or the
   numpy :class:`~repro.net.batch.BatchedKernel` when available and
   requested), routing each successor to its owner's outbox;
2. the coordinator gathers all outboxes and delivers, to every shard,
   the concatenation of the candidates addressed to it **in source
   shard-index order**;
3. each shard absorbs its candidates first-seen (dedup against its
   visited set) into the next frontier.

Why the counts stay exact: ownership is a pure function of the marking,
so every reachable state is absorbed — and later expanded — by exactly
one shard; the successor rule (full interleaving semantics) is a pure
function of the marking; and the barrier makes every message's content a
function of the level's frontier *sets*, never of worker timing.  Aggregate state/edge/deadlock counts
therefore equal the sequential explorer's for any shard count and any
scheduling — the determinism suite holds sharded runs to that.

Two runners share the shard core: an **inline** runner (all shards in
this process — the deterministic baseline, and the only option on one
CPU) and a **forked** runner (one ``fork`` worker per shard exchanging
frontiers over pipes, mirroring :mod:`repro.engine.pool`).  Budgets are
enforced at level granularity: a bounded run stops at the first barrier
where the state budget is reached or the deadline has passed, so it may
store up to one level beyond ``max_states`` (documented, unlike the
scalar driver's exact cap).

``analyze_parallel`` packages the aggregate as an
``AnalysisResult(analyzer="parallel")``.  It answers the deadlock
question only (its :mod:`repro.props.compat` entry);
it reports no witness — the point is raw throughput on big instances,
and a witness needs the edge structure the shards deliberately do not
retain.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from repro.analysis.stats import AnalysisResult, stopwatch
from repro.net.batch import HAVE_NUMPY, BatchedKernel, state_key, words_of
from repro.net.exceptions import UnsafeNetError
from repro.net.kernel import MarkingKernel
from repro.net.petrinet import PetriNet
from repro.obs import names
from repro.obs.context import (
    TraceContext,
    current_context,
    new_trace_context,
    set_context,
    use_context,
)
from repro.obs.record import record_result
from repro.obs.tracer import current_tracer
from repro.props.ast import Property, UnsupportedPropertyError
from repro.props.compat import unsupported_reason
from repro.props.eval import engine_property, needs_decomposition, run_property
from repro.search.core import abort_note
from repro.search.limits import Deadline

__all__ = [
    "ParallelOutcome",
    "analyze_parallel",
    "explore_parallel",
    "shard_of",
]


def shard_of(bits: int, words: int, shards: int) -> int:
    """Owner shard of a packed marking (pure function of the marking)."""
    return state_key(bits, words) % shards


@dataclass
class _LevelStats:
    """Per-shard, per-level counter deltas (picklable for the fork path)."""

    expanded: int = 0
    edges: int = 0
    deadlocks: int = 0
    absorbed: int = 0
    exchanged: int = 0
    stalled: int = 0
    rows: int = 0

    def as_tuple(self) -> Tuple[int, ...]:
        return (
            self.expanded,
            self.edges,
            self.deadlocks,
            self.absorbed,
            self.exchanged,
            self.stalled,
            self.rows,
        )

    @classmethod
    def from_tuple(cls, values: Sequence[int]) -> "_LevelStats":
        return cls(*values)


class _ShardCore:
    """One shard's visited set, frontier and level-step logic.

    Identical whether driven inline or inside a forked worker — the
    runner only moves messages; all exploration state lives here.
    """

    def __init__(
        self,
        kernel: MarkingKernel,
        shard: int,
        shards: int,
        *,
        batch: bool,
    ) -> None:
        self.kernel = kernel
        self.shard = shard
        self.shards = shards
        self.words = words_of(kernel.num_places)
        self.batched = BatchedKernel(kernel) if batch else None
        self.visited: set[int] = set()
        self.frontier: List[int] = []
        self.states = 0
        self.levels = 0

    def run_level(
        self, incoming: Sequence[int]
    ) -> Tuple[List[List[int]], _LevelStats]:
        """Absorb ``incoming`` (first-seen), expand, route successors.

        Returns one candidate list per destination shard (this shard's
        outboxes, deduplicated within the level) and the level's counter
        deltas.  Raises :class:`UnsafeNetError` exactly where the scalar
        kernel would.

        Each call is wrapped in one ``parallel/shard`` span — emitted by
        the core itself, so the span-name counts of an inline run and a
        forked run are identical by construction (the level count of the
        BFS is deterministic).  In a forked worker the shard span has no
        in-process parent and attaches to the coordinator's span via the
        shipped trace context.
        """
        level = self.levels
        self.levels += 1
        with current_tracer().span(
            names.SPAN_PARALLEL_SHARD, shard=self.shard, level=level
        ):
            stats = _LevelStats()
            visited = self.visited
            frontier = self.frontier
            for bits in incoming:
                if bits not in visited:
                    visited.add(bits)
                    frontier.append(bits)
            stats.absorbed = len(frontier)
            self.states = len(visited)
            if not frontier:
                stats.stalled = 1
                return [[] for _ in range(self.shards)], stats
            outboxes: List[List[int]] = [[] for _ in range(self.shards)]
            outbox_seen: List[set[int]] = [set() for _ in range(self.shards)]
            if self.batched is not None:
                self._expand_batched(frontier, outboxes, outbox_seen, stats)
            else:
                self._expand_scalar(frontier, outboxes, outbox_seen, stats)
            stats.expanded = len(frontier)
            stats.exchanged = sum(
                len(box) for d, box in enumerate(outboxes) if d != self.shard
            )
            self.frontier = []
            return outboxes, stats

    def _expand_scalar(
        self,
        frontier: Sequence[int],
        outboxes: List[List[int]],
        outbox_seen: List[set[int]],
        stats: _LevelStats,
    ) -> None:
        kernel = self.kernel
        words = self.words
        shards = self.shards
        for bits in frontier:
            mask = kernel.enabled_mask(bits)
            if not mask:
                stats.deadlocks += 1
                continue
            while mask:
                low = mask & -mask
                mask ^= low
                successor = kernel.fire_enabled(low.bit_length() - 1, bits)
                stats.edges += 1
                dest = state_key(successor, words) % shards
                seen = outbox_seen[dest]
                if successor not in seen:
                    seen.add(successor)
                    outboxes[dest].append(successor)

    def _expand_batched(
        self,
        frontier: Sequence[int],
        outboxes: List[List[int]],
        outbox_seen: List[set[int]],
        stats: _LevelStats,
    ) -> None:
        batched = self.batched
        assert batched is not None
        rows = batched.encode_rows(frontier)
        stats.rows = rows.shape[0]
        srcs, fired, succ, any_enabled = batched.expand(rows)
        stats.deadlocks += int(rows.shape[0]) - int(any_enabled.sum())
        stats.edges += int(srcs.shape[0])
        if not srcs.shape[0]:
            return
        # NEP-50 weak-scalar rules keep ``uint64 % int`` in uint64.
        dests = (batched.state_keys(succ) % self.shards).tolist()
        for successor, dest in zip(batched.decode_rows(succ), dests):
            dest = int(dest)
            seen = outbox_seen[dest]
            if successor not in seen:
                seen.add(successor)
                outboxes[dest].append(successor)


@dataclass
class ParallelOutcome:
    """Aggregate of a sharded exploration — counts, not a graph."""

    states: int = 0
    edges: int = 0
    deadlocks: int = 0
    expanded: int = 0
    levels: int = 0
    peak_frontier: int = 0
    exchange_volume: int = 0
    exchange_stalls: int = 0
    shard_states: Tuple[int, ...] = ()
    elapsed_seconds: float = 0.0
    exhaustive: bool = True
    stop_reason: str | None = None
    batch: bool = False
    batch_rows_total: int = 0
    batch_levels: int = 0
    workers: str = "inline"

    @property
    def mean_enabled(self) -> float:
        if not self.expanded:
            return 0.0
        return self.edges / self.expanded


def _resolve_batch(batch: Any) -> bool:
    if batch == "auto":
        return HAVE_NUMPY
    if batch and not HAVE_NUMPY:
        raise RuntimeError(
            "batch=True requires numpy (install the [fast] extra)"
        )
    return bool(batch)


def _resolve_workers(workers: Any, shards: int) -> str:
    if workers in (None, "auto"):
        cpus = os.cpu_count() or 1
        if (
            shards > 1
            and cpus > 1
            and "fork" in multiprocessing.get_all_start_methods()
        ):
            return "fork"
        return "inline"
    if workers in ("inline", "fork"):
        if workers == "fork" and (
            "fork" not in multiprocessing.get_all_start_methods()
        ):
            raise RuntimeError("fork start method unavailable on this platform")
        return str(workers)
    raise ValueError(f"unknown workers mode {workers!r}")


def explore_parallel(
    net: PetriNet,
    *,
    shards: int = 2,
    batch: Any = "auto",
    workers: Any = "auto",
    max_states: int | None = None,
    max_seconds: float | None = None,
) -> ParallelOutcome:
    """Run the sharded level-synchronized BFS and return aggregate counts.

    Every enabled transition fires (full interleaving semantics).
    ``batch`` is ``"auto"`` (numpy when available), ``True`` or
    ``False``; ``workers`` is ``"auto"``, ``"inline"`` or ``"fork"``.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    use_batch = _resolve_batch(batch)
    mode = _resolve_workers(workers, shards)
    kernel = net.kernel()
    words = words_of(kernel.num_places)
    outcome = ParallelOutcome(batch=use_batch, workers=mode)
    start = time.perf_counter()
    deadline = Deadline.of(max_seconds)
    tracer = current_tracer()
    width_hist = tracer.metrics.histogram(names.BATCH_LEVEL_WIDTH)

    initial_dest = shard_of(kernel.initial, words, shards)
    pending: List[List[int]] = [[] for _ in range(shards)]
    pending[initial_dest].append(kernel.initial)

    if mode == "fork":
        runner: _InlineRunner | _ForkRunner = _ForkRunner(
            net, shards, batch=use_batch
        )
    else:
        runner = _InlineRunner(kernel, shards, batch=use_batch)
    try:
        while any(pending):
            if deadline is not None and deadline.expired():
                outcome.exhaustive = False
                outcome.stop_reason = "time-budget"
                break
            if max_states is not None and outcome.states >= max_states:
                outcome.exhaustive = False
                outcome.stop_reason = "state-budget"
                break
            with tracer.span(
                names.SPAN_PARALLEL_LEVEL, level=outcome.levels
            ):
                results = runner.run_level(pending)
            pending = [[] for _ in range(shards)]
            level_frontier = 0
            for src in range(shards):
                outboxes, stats = results[src]
                for dest in range(shards):
                    pending[dest].extend(outboxes[dest])
                outcome.expanded += stats.expanded
                outcome.edges += stats.edges
                outcome.deadlocks += stats.deadlocks
                outcome.exchange_volume += stats.exchanged
                outcome.exchange_stalls += stats.stalled
                level_frontier += stats.absorbed
                if stats.rows:
                    outcome.batch_rows_total += stats.rows
                    outcome.batch_levels += 1
                    width_hist.observe(stats.rows)
            if level_frontier > outcome.peak_frontier:
                outcome.peak_frontier = level_frontier
            outcome.levels += 1
            outcome.states = runner.total_states()
        outcome.shard_states = tuple(runner.per_shard_states())
        outcome.states = sum(outcome.shard_states)
    finally:
        runner.close()
    outcome.elapsed_seconds = time.perf_counter() - start
    return outcome


class _InlineRunner:
    """All shards in this process — the deterministic baseline."""

    def __init__(
        self,
        kernel: MarkingKernel,
        shards: int,
        *,
        batch: bool,
    ) -> None:
        self.cores = [
            _ShardCore(kernel, s, shards, batch=batch)
            for s in range(shards)
        ]

    def run_level(
        self, pending: Sequence[Sequence[int]]
    ) -> List[Tuple[List[List[int]], _LevelStats]]:
        return [
            core.run_level(incoming)
            for core, incoming in zip(self.cores, pending)
        ]

    def total_states(self) -> int:
        return sum(core.states for core in self.cores)

    def per_shard_states(self) -> List[int]:
        return [core.states for core in self.cores]

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


def _shard_worker(
    conn: Any,
    net: PetriNet,
    shard: int,
    shards: int,
    batch: bool,
    trace_ctx: TraceContext | None = None,
) -> None:
    """Forked worker loop: one shard core driven over a pipe.

    ``trace_ctx`` is the coordinator's context re-parented to its
    current span: the worker installs it so its ``parallel/shard``
    spans join the request's trace, and ships its drained records back
    in the ``bye`` reply (span ids embed the pid, so the merge is
    collision-free).
    """
    tracer = current_tracer()
    tracer.child_reset()
    if trace_ctx is not None:
        set_context(trace_ctx)
    core = _ShardCore(net.kernel(), shard, shards, batch=batch)
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "run":
                try:
                    outboxes, stats = core.run_level(msg[1])
                except UnsafeNetError as exc:
                    conn.send(("unsafe", exc.transition, exc.place))
                    continue
                conn.send(("out", outboxes, stats.as_tuple(), core.states))
            elif msg[0] == "stop":
                conn.send(("bye", core.states, tracer.drain()))
                return
    except (EOFError, KeyboardInterrupt):  # pragma: no cover
        return


class _ForkRunner:
    """One forked worker per shard, level-synchronized over pipes."""

    def __init__(
        self,
        net: PetriNet,
        shards: int,
        *,
        batch: bool,
    ) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conns = []
        self.procs = []
        self._states = [0] * shards
        # Ship the trace context across the fork, re-parented to the
        # span currently open on this side (the analyze span), so every
        # worker's shard spans attach to it in the merged trace.
        tracer = current_tracer()
        active = current_context()
        trace_ctx: TraceContext | None = None
        if tracer.enabled and active is not None:
            trace_ctx = active.child(
                tracer.current_span_id() or active.parent_span_id
            )
        for shard in range(shards):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker,
                args=(child, net, shard, shards, batch, trace_ctx),
                daemon=True,
            )
            proc.start()
            child.close()
            self.conns.append(parent)
            self.procs.append(proc)

    def run_level(
        self, pending: Sequence[Sequence[int]]
    ) -> List[Tuple[List[List[int]], _LevelStats]]:
        for conn, incoming in zip(self.conns, pending):
            conn.send(("run", list(incoming)))
        results: List[Tuple[List[List[int]], _LevelStats]] = []
        unsafe: Tuple[str, str] | None = None
        for shard, conn in enumerate(self.conns):
            reply = conn.recv()
            if reply[0] == "unsafe":
                unsafe = (reply[1], reply[2])
                results.append(
                    ([[] for _ in range(len(self.conns))], _LevelStats())
                )
                continue
            _, outboxes, stats_tuple, states = reply
            self._states[shard] = states
            results.append((outboxes, _LevelStats.from_tuple(stats_tuple)))
        if unsafe is not None:
            raise UnsafeNetError(*unsafe)
        return results

    def total_states(self) -> int:
        return sum(self._states)

    def per_shard_states(self) -> List[int]:
        return list(self._states)

    def close(self) -> None:
        tracer = current_tracer()
        for conn in self.conns:
            try:
                conn.send(("stop",))
                reply = conn.recv()
                if reply[0] == "bye" and len(reply) > 2:
                    # Merge the worker's drained shard spans into the
                    # coordinator's trace.
                    tracer.adopt(reply[2])
            except (BrokenPipeError, EOFError, OSError):
                pass
            finally:
                conn.close()
        for proc in self.procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=1.0)


def analyze_parallel(
    net: PetriNet,
    *,
    shards: int = 2,
    batch: Any = "auto",
    workers: Any = "auto",
    max_states: int | None = None,
    max_seconds: float | None = None,
    want_witness: bool = False,
    prop: "Property | str | None" = None,
) -> AnalysisResult:
    """Sharded analysis packaged as an :class:`AnalysisResult`.

    Answers the deadlock question only (see its :mod:`repro.props.compat`
    entry) and reports no witness:
    the shards keep visited *sets*, not the edge structure a witness
    path needs (``want_witness`` is accepted for signature uniformity).
    """
    goal_prop = engine_property(prop)
    if goal_prop is not None and needs_decomposition(goal_prop):
        return run_property(
            goal_prop,
            lambda leaf: analyze_parallel(
                net,
                shards=shards,
                batch=batch,
                workers=workers,
                max_states=max_states,
                max_seconds=max_seconds,
                want_witness=want_witness,
                prop=leaf,
            ),
            analyzer="parallel",
            net_name=net.name,
        )
    if goal_prop is not None:
        raise UnsupportedPropertyError(
            "parallel",
            goal_prop,
            unsupported_reason("parallel", goal_prop)
            or "the sharded explorer answers the deadlock question only",
        )
    tracer = current_tracer()
    # One sharded analysis is one logical request: mint a trace context
    # when the caller did not install one, so inline and forked shard
    # spans share one trace_id.
    ctx = current_context()
    if ctx is None and tracer.enabled:
        ctx = new_trace_context()
    with use_context(ctx), tracer.span(
        names.SPAN_ANALYZE, analyzer="parallel", net=net.name
    ) as root:
        with tracer.span(names.SPAN_CERTIFICATE):
            certified = net.static_analysis().safety_certificate.certified
        with stopwatch() as elapsed:
            outcome = explore_parallel(
                net,
                shards=shards,
                batch=batch,
                workers=workers,
                max_states=max_states,
                max_seconds=max_seconds,
            )
        extras: dict[str, Any] = {
            names.EXPANDED: outcome.expanded,
            names.PEAK_FRONTIER: outcome.peak_frontier,
            names.MEAN_ENABLED: round(outcome.mean_enabled, 3),
            names.STATES_PER_SECOND: round(
                outcome.states / outcome.elapsed_seconds, 1
            )
            if outcome.elapsed_seconds > 0
            else float(outcome.states),
            names.SHARDS: shards,
            names.SHARD_EXCHANGE_VOLUME: outcome.exchange_volume,
            names.SHARD_EXCHANGE_STALLS: outcome.exchange_stalls,
            "workers": outcome.workers,
            "levels": outcome.levels,
            "shard_states": list(outcome.shard_states),
            names.SAFETY_CERTIFIED: certified,
        }
        if outcome.batch and outcome.batch_levels:
            extras[names.BATCH_LEVEL_WIDTH] = round(
                outcome.batch_rows_total / outcome.batch_levels, 3
            )
        note = abort_note(
            outcome.stop_reason,
            max_states=max_states,
            max_seconds=max_seconds,
        )
        if note is not None:
            extras[names.ABORTED] = note
        result = AnalysisResult(
            analyzer="parallel",
            net_name=net.name,
            states=outcome.states,
            edges=outcome.edges,
            deadlock=outcome.deadlocks > 0,
            time_seconds=elapsed[0],
            witness=None,
            exhaustive=outcome.exhaustive,
            extras=extras,
        )
        root.set(states=result.states, edges=result.edges)
    record_result(result)
    return result
