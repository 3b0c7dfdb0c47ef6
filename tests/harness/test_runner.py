"""Budgeted analyzer runs through the engine's job API.

In-process runs go through ``execute_job``; isolated runs through a
one-worker ``WorkerPool``.
"""

import pytest

from repro.engine.jobs import Budget, VerificationJob, execute_job
from repro.engine.pool import WorkerPool
from repro.models import choice_net, nsdp


def run_analyzer(name, net, budget=None):
    return execute_job(VerificationJob(net, name, budget or Budget()))


class TestRunAnalyzer:
    @pytest.mark.parametrize("name", ["full", "stubborn", "symbolic", "gpo"])
    def test_all_analyzers_agree_on_choice(self, name):
        result = run_analyzer(name, choice_net())
        assert result.deadlock
        assert result.exhaustive
        assert result.analyzer == name

    def test_unknown_analyzer_rejected(self):
        with pytest.raises(ValueError, match="unknown analyzer"):
            VerificationJob(choice_net(), "quantum")

    def test_state_budget_overrun_reported(self):
        result = run_analyzer(
            "full", nsdp(4), Budget(max_states=10, max_seconds=None)
        )
        assert not result.exhaustive
        assert "aborted" in result.extras
        assert result.states == 10

    def test_time_budget_overrun_reported(self):
        result = run_analyzer(
            "symbolic", nsdp(5), Budget(max_seconds=0.0)
        )
        assert not result.exhaustive
        assert "aborted" in result.extras

    def test_extra_kwargs_forwarded(self):
        result = run_analyzer(
            "parallel", choice_net(), Budget(extra={"shards": 1})
        )
        assert result.extras["shards"] == 1

    def test_unlimited_budget(self):
        result = run_analyzer(
            "full", choice_net(), Budget(max_states=None, max_seconds=None)
        )
        assert result.exhaustive


class TestCooperativeTimeBudgets:
    """max_seconds now binds the explicit explorers, not just symbolic."""

    @pytest.mark.parametrize(
        "name", ["full", "stubborn", "gpo", "unfolding"]
    )
    def test_zero_time_budget_aborts_explicit_engines(self, name):
        result = run_analyzer(
            name, nsdp(4), Budget(max_states=None, max_seconds=0.0)
        )
        assert not result.exhaustive
        assert "aborted" in result.extras

    def test_overrun_reports_actual_states(self):
        result = run_analyzer(
            "stubborn", nsdp(4), Budget(max_states=10, max_seconds=None)
        )
        assert not result.exhaustive
        assert result.states == 10  # real progress: stops exactly at budget


class TestIsolatedRunner:
    def test_same_verdict_as_in_process(self):
        inproc = run_analyzer("gpo", choice_net())
        isolated = WorkerPool(1).run_one(VerificationJob(choice_net())).result
        assert isolated.deadlock == inproc.deadlock
        assert isolated.states == inproc.states
        assert isolated.exhaustive == inproc.exhaustive

    def test_unknown_analyzer_rejected(self, monkeypatch):
        # Rejected when the job is built, before any worker is forked.
        def no_fork(*args, **kwargs):
            raise AssertionError("a worker was started")

        monkeypatch.setattr(WorkerPool, "submit", no_fork)
        with pytest.raises(ValueError, match="unknown analyzer"):
            WorkerPool(1).run([VerificationJob(choice_net(), "quantum")])
