"""Tests for the process-isolated worker pool and hard preemption."""

import os
import time

import pytest

from repro.engine.cache import ResultCache
from repro.engine.events import MemoryEventSink
from repro.engine.jobs import ANALYZERS, Budget, VerificationJob
from repro.engine.pool import WorkerPool
from repro.engine.portfolio import run_race
from repro.models import choice_net, nsdp
from repro.net.exceptions import UnsafeNetError

requires_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="test analyzers need fork inheritance"
)


def _sleepy_analyzer(net, **kwargs):
    """Ignores every cooperative budget — only SIGTERM stops it."""
    time.sleep(60)


def _crashy_analyzer(net, **kwargs):
    os._exit(3)


def _unsafe_analyzer(net, **kwargs):
    raise UnsafeNetError("t", "p")


@pytest.fixture
def rogue_analyzers():
    """Temporarily register analyzers that misbehave on purpose."""
    ANALYZERS["sleepy"] = _sleepy_analyzer
    ANALYZERS["crashy"] = _crashy_analyzer
    ANALYZERS["unsafe"] = _unsafe_analyzer
    yield
    for name in ("sleepy", "crashy", "unsafe"):
        ANALYZERS.pop(name, None)


class TestHappyPath:
    def test_single_job(self):
        outcome = WorkerPool(1).run_one(VerificationJob(net=choice_net()))
        assert outcome.status == "ok"
        assert outcome.result.deadlock
        assert outcome.worker_pid is not None
        assert outcome.worker_pid != os.getpid()

    def test_parallel_results_keep_submission_order(self):
        jobs = [
            VerificationJob(net=nsdp(2), method=m)
            for m in ("full", "stubborn", "symbolic", "gpo")
        ]
        outcomes = WorkerPool(4).run(jobs)
        assert [o.job.method for o in outcomes] == [
            "full", "stubborn", "symbolic", "gpo",
        ]
        assert all(o.status == "ok" for o in outcomes)
        # Same verdict from every analyzer, computed in separate processes.
        assert len({o.result.deadlock for o in outcomes}) == 1

    def test_peak_rss_reported(self):
        outcome = WorkerPool(1).run_one(VerificationJob(net=choice_net()))
        assert outcome.peak_rss_kb is None or outcome.peak_rss_kb > 0


@requires_fork
class TestHardPreemption:
    def test_sleeper_killed_within_a_second_of_deadline(self, rogue_analyzers):
        job = VerificationJob(
            net=choice_net(),
            method="sleepy",
            budget=Budget(max_seconds=0.2),
        )
        start = time.perf_counter()
        outcome = WorkerPool(1).run_one(job)
        wall = time.perf_counter() - start
        assert outcome.status == "killed"
        assert not outcome.result.exhaustive
        assert "aborted" in outcome.result.extras
        # deadline 0.2s + grace 0.5s + scheduling slack << deadline + ~1s
        assert wall < 1.2

    def test_no_time_budget_means_no_preemption(self, rogue_analyzers):
        # A quick real job with unlimited time must not be killed.
        job = VerificationJob(
            net=choice_net(),
            method="gpo",
            budget=Budget(max_seconds=None),
        )
        outcome = WorkerPool(1).run_one(job)
        assert outcome.status == "ok"


@requires_fork
class TestCrashIsolation:
    def test_worker_hard_crash_reported_not_raised(self, rogue_analyzers):
        outcome = WorkerPool(1).run_one(
            VerificationJob(net=choice_net(), method="crashy")
        )
        assert outcome.status == "error"
        assert "exit code 3" in outcome.error
        assert not outcome.result.exhaustive

    def test_unsafe_net_error_reported_not_raised(self, rogue_analyzers):
        outcome = WorkerPool(1).run_one(
            VerificationJob(net=choice_net(), method="unsafe")
        )
        assert outcome.status == "error"
        assert "UnsafeNetError" in outcome.error
        assert not outcome.result.exhaustive

    def test_crash_does_not_poison_siblings(self, rogue_analyzers):
        jobs = [
            VerificationJob(net=choice_net(), method="crashy"),
            VerificationJob(net=choice_net(), method="gpo"),
        ]
        outcomes = WorkerPool(2).run(jobs)
        assert outcomes[0].status == "error"
        assert outcomes[1].status == "ok"
        assert outcomes[1].result.deadlock


class TestEvents:
    def test_lifecycle_events_emitted(self):
        sink = MemoryEventSink()
        WorkerPool(1, events=sink).run_one(VerificationJob(net=choice_net()))
        assert sink.kinds() == ["queued", "started", "finished"]
        finished = sink.events[-1]
        assert finished.wall_seconds is not None
        assert finished.net == "choice"

    @requires_fork
    def test_killed_event_emitted(self, rogue_analyzers):
        sink = MemoryEventSink()
        job = VerificationJob(
            net=choice_net(),
            method="sleepy",
            budget=Budget(max_seconds=0.1),
        )
        WorkerPool(1, events=sink).run_one(job)
        assert sink.kinds() == ["queued", "started", "killed"]


class TestRunUntil:
    @requires_fork
    def test_first_accepted_outcome_stops_the_run(self, rogue_analyzers):
        sink = MemoryEventSink()
        jobs = [
            VerificationJob(choice_net(), "sleepy", Budget(max_seconds=30.0)),
            VerificationJob(choice_net(), "gpo"),
            VerificationJob(nsdp(2), "full"),
        ]
        outcomes = WorkerPool(2, events=sink).run(
            jobs, until=lambda outcome: outcome.ran
        )
        # The pending third job never started; the list keeps input order.
        assert [(o.job.method, o.status) for o in outcomes] == [
            ("sleepy", "cancelled"),
            ("gpo", "ok"),
        ]
        assert sink.kinds().count("started") == 2
        (cancelled,) = [e for e in sink.events if e.kind == "cancelled"]
        assert cancelled.method == "sleepy"
        assert cancelled.detail == "race lost"

    def test_one_worker_runs_in_order_and_stops(self):
        sink = MemoryEventSink()
        jobs = [
            VerificationJob(choice_net(), "gpo"),
            VerificationJob(choice_net(), "full"),
        ]
        outcomes = WorkerPool(1, events=sink).run(jobs, until=lambda o: True)
        assert [o.job.method for o in outcomes] == ["gpo"]
        assert sink.kinds() == ["queued", "queued", "started", "finished"]

    def test_cache_hit_can_stop_the_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = VerificationJob(choice_net(), "gpo")
        WorkerPool(1, cache=cache).run([job])
        sink = MemoryEventSink()
        outcomes = WorkerPool(1, cache=cache, events=sink).run(
            [job, VerificationJob(choice_net(), "full")],
            until=lambda o: o.status == "cached",
        )
        assert [o.status for o in outcomes] == ["cached"]
        assert "started" not in sink.kinds()


class TestRaceEvents:
    """A race records the same event vocabulary as any pool run."""

    @requires_fork
    def test_loser_cancelled_with_race_lost(self, rogue_analyzers):
        sink = MemoryEventSink()
        outcome = run_race(
            choice_net(),
            methods=("sleepy", "gpo"),
            budget=Budget(max_seconds=30.0),
            jobs=2,
            events=sink,
        )
        assert outcome.winner.job.method == "gpo"
        (cancelled,) = [e for e in sink.events if e.kind == "cancelled"]
        assert cancelled.method == "sleepy"
        assert cancelled.detail == "race lost"

    def test_cached_win_records_cache_key_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_race(choice_net(), methods=("gpo",), jobs=2, cache=cache)
        sink = MemoryEventSink()
        second = run_race(
            choice_net(), methods=("gpo",), jobs=2, cache=cache, events=sink
        )
        assert second.winner.status == "cached"
        assert sink.kinds() == ["queued", "cache_hit"]
        assert sink.events[-1].detail == cache.key(second.winner.job)[:16]
