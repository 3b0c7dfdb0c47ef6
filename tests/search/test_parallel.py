"""Sharded level-synchronized BFS vs the sequential analyzers.

Sharding and batching regroup the exploration; they must never change
it.  Every configuration — any shard count, scalar or numpy-batched
expansion, inline or forked workers — has to reproduce the sequential
explorer's exact state/edge/deadlock counts, because shard ownership
(splitmix64 of the packed marking) and the successor rule are pure
functions of the marking and the level barrier makes the schedule
irrelevant.  The tests pin that invariance on the Table 1 families and
on random safe nets, plus the budget/property/portfolio plumbing.
"""

from __future__ import annotations

import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.reachability import analyze as full_analyze
from repro.engine.jobs import Budget, VerificationJob, execute_job
from repro.engine.portfolio import run_race
from repro.models import asat, nsdp, over, rw
from repro.net.batch import HAVE_NUMPY
from repro.props.ast import UnsupportedPropertyError
from repro.search.parallel import (
    analyze_parallel,
    explore_parallel,
    shard_of,
)

from ..conftest import safe_nets

FAMILIES = [nsdp(4), asat(2), over(3), rw(6)]

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCountInvariance:
    @pytest.mark.parametrize("shards", [1, 2, 3])
    @pytest.mark.parametrize("net", FAMILIES, ids=lambda n: n.name)
    def test_full_semantics_match_sequential(self, net, shards):
        sequential = full_analyze(net, want_witness=False)
        outcome = explore_parallel(
            net, shards=shards, batch=False, workers="inline"
        )
        assert outcome.exhaustive
        assert outcome.states == sequential.states
        assert outcome.edges == sequential.edges
        assert (outcome.deadlocks > 0) == sequential.deadlock
        assert len(outcome.shard_states) == shards
        assert sum(outcome.shard_states) == outcome.states

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("net", FAMILIES, ids=lambda n: n.name)
    def test_batched_matches_scalar(self, net, shards):
        scalar = explore_parallel(
            net, shards=shards, batch=False, workers="inline"
        )
        batched = explore_parallel(
            net, shards=shards, batch=True, workers="inline"
        )
        assert batched.batch
        assert (batched.states, batched.edges, batched.deadlocks) == (
            scalar.states,
            scalar.edges,
            scalar.deadlocks,
        )

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_forked_workers_match_inline(self):
        net = nsdp(4)
        inline = explore_parallel(net, shards=2, workers="inline")
        forked = explore_parallel(net, shards=2, workers="fork")
        assert forked.workers == "fork"
        assert (forked.states, forked.edges, forked.deadlocks) == (
            inline.states,
            inline.edges,
            inline.deadlocks,
        )
        # Per-shard totals are a pure function of the markings, so even
        # the partition must be identical under process scheduling.
        assert forked.shard_states == inline.shard_states

    @_SETTINGS
    @given(net=safe_nets())
    def test_random_nets_agree_with_full(self, net):
        from repro.net.exceptions import UnsafeNetError

        try:
            sequential = full_analyze(net, want_witness=False, max_states=2000)
        except UnsafeNetError:
            with pytest.raises(UnsafeNetError):
                explore_parallel(net, shards=3, workers="inline")
            return
        if not sequential.exhaustive:
            return
        outcome = explore_parallel(net, shards=3, workers="inline")
        assert outcome.states == sequential.states
        assert outcome.edges == sequential.edges
        assert (outcome.deadlocks > 0) == sequential.deadlock


class TestOwnership:
    def test_shard_of_partitions_every_state(self):
        for shards in (1, 2, 3, 5):
            assert all(
                0 <= shard_of(bits, 1, shards) < shards
                for bits in range(256)
            )

    def test_single_shard_owns_everything(self):
        assert all(shard_of(bits, 1, 1) == 0 for bits in range(256))


class TestBudgetsAndProperties:
    def test_state_budget_truncates_at_level_granularity(self):
        outcome = explore_parallel(nsdp(6), shards=2, max_states=100)
        assert not outcome.exhaustive
        assert outcome.stop_reason == "state-budget"
        assert outcome.states >= 100  # checked between levels

    def test_zero_second_budget_reports_time(self):
        outcome = explore_parallel(nsdp(4), shards=2, max_seconds=0.0)
        assert not outcome.exhaustive
        assert outcome.stop_reason == "time-budget"

    def test_analyze_parallel_refuses_non_deadlock(self):
        with pytest.raises(UnsupportedPropertyError):
            analyze_parallel(nsdp(3), shards=2, prop="reachable(eat0)")

    def test_analyze_parallel_matches_sequential_result(self):
        net = over(3)
        sequential = full_analyze(net, want_witness=False)
        result = analyze_parallel(net, shards=2, workers="inline")
        assert result.exhaustive
        assert result.states == sequential.states
        assert result.deadlock == sequential.deadlock


class TestEnginePlumbing:
    def test_execute_job_parallel_method(self):
        job = VerificationJob(
            net=nsdp(4),
            method="parallel",
            budget=Budget(extra={"shards": 2, "workers": "inline"}),
        )
        result = execute_job(job)
        sequential = full_analyze(nsdp(4), want_witness=False)
        assert result.exhaustive
        assert result.states == sequential.states
        assert result.deadlock == sequential.deadlock

    def test_run_race_shards_enters_parallel(self):
        outcome = run_race(
            nsdp(3), methods=("full",), jobs=1, shards=2
        )
        assert "parallel" in outcome.methods
        assert outcome.conclusive

    def test_run_race_drops_parallel_on_property_race(self):
        outcome = run_race(
            nsdp(3),
            methods=("full",),
            jobs=1,
            shards=2,
            query="reachable(eat0)",
        )
        assert "parallel" not in outcome.methods
        assert any(method == "parallel" for method, _ in outcome.dropped)
