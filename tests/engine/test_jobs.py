"""Tests for job specs and budgeted in-process execution."""

import pytest

from repro.engine.jobs import (
    Budget,
    VerificationJob,
    execute_job,
    is_conclusive,
)
from repro.models import choice_net, nsdp, rw


class TestVerificationJob:
    def test_label(self):
        job = VerificationJob(net=choice_net(), method="gpo")
        assert job.label == "choice/gpo"

    def test_jobs_are_picklable(self):
        import pickle

        job = VerificationJob(net=nsdp(2), method="full")
        clone = pickle.loads(pickle.dumps(job))
        assert clone.net == job.net
        assert clone.method == "full"
        assert clone.budget == job.budget

    def test_cache_key_varies_by_method_and_budget(self):
        net = choice_net()
        base = VerificationJob(net=net, method="gpo")
        assert (
            base.cache_key_material()
            == VerificationJob(net=net, method="gpo").cache_key_material()
        )
        assert (
            base.cache_key_material()
            != VerificationJob(net=net, method="full").cache_key_material()
        )
        tighter = VerificationJob(
            net=net, method="gpo", budget=Budget(max_states=7)
        )
        assert base.cache_key_material() != tighter.cache_key_material()

    def test_unknown_query_rejected(self):
        job = VerificationJob(net=choice_net(), query="liveness")
        with pytest.raises(ValueError):
            execute_job(job)

    def test_unknown_method_rejected(self):
        # Rejected at construction, so no pool or race forks a worker.
        with pytest.raises(ValueError, match="unknown analyzer"):
            VerificationJob(net=choice_net(), method="quantum")
        with pytest.raises(ValueError, match="unknown reduce mode"):
            VerificationJob(net=choice_net(), reduce="sideways")


class TestCooperativeDeadlines:
    """Budget.max_seconds now binds every analyzer, not just symbolic."""

    @pytest.mark.parametrize(
        "method", ["full", "stubborn", "gpo", "unfolding", "symbolic"]
    )
    def test_zero_time_budget_aborts(self, method):
        job = VerificationJob(
            net=nsdp(4),
            method=method,
            budget=Budget(max_states=None, max_seconds=0.0),
        )
        result = execute_job(job)
        assert not result.exhaustive
        assert "aborted" in result.extras
        assert "0s" in result.extras["aborted"]

    @pytest.mark.parametrize(
        "method", ["full", "stubborn", "gpo", "unfolding", "symbolic"]
    )
    def test_generous_time_budget_completes(self, method):
        job = VerificationJob(
            net=choice_net(),
            method=method,
            budget=Budget(max_seconds=60.0),
        )
        result = execute_job(job)
        assert result.exhaustive
        assert result.deadlock


class TestOverrunProgressReporting:
    def test_state_overrun_reports_actual_progress(self):
        # The driver stops exactly at the state budget, so the bounded
        # result reports the real stored-state count (== the budget).
        job = VerificationJob(
            net=nsdp(4),
            method="stubborn",
            budget=Budget(max_states=10, max_seconds=None),
        )
        result = execute_job(job)
        assert not result.exhaustive
        assert result.states == 10
        assert result.extras["aborted"] == "> 10 states"

    def test_full_analyzer_bounded_graph_matches_budget(self):
        job = VerificationJob(
            net=nsdp(4),
            method="full",
            budget=Budget(max_states=10, max_seconds=None),
        )
        result = execute_job(job)
        assert not result.exhaustive
        assert result.states == 10  # bounded re-exploration keeps the cap


class TestIsConclusive:
    def test_verdicts(self):
        deadlock = execute_job(VerificationJob(net=choice_net()))
        assert is_conclusive(deadlock)
        free = execute_job(VerificationJob(net=rw(2), method="gpo"))
        assert not free.deadlock
        assert is_conclusive(free)
        bounded = execute_job(
            VerificationJob(
                net=nsdp(6),
                method="stubborn",
                budget=Budget(max_states=10, max_seconds=None),
            )
        )
        assert not is_conclusive(bounded)
        assert not is_conclusive(None)
