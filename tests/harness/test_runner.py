"""Tests for the budgeted analyzer runner."""

import pytest

from repro.harness import Budget, run_analyzer
from repro.models import choice_net, nsdp


class TestRunAnalyzer:
    @pytest.mark.parametrize("name", ["full", "stubborn", "symbolic", "gpo"])
    def test_all_analyzers_agree_on_choice(self, name):
        result = run_analyzer(name, choice_net())
        assert result.deadlock
        assert result.exhaustive
        assert result.analyzer == name

    def test_unknown_analyzer_rejected(self):
        with pytest.raises(ValueError):
            run_analyzer("quantum", choice_net())

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
        from repro.harness import run_analyzer_isolated

        inproc = run_analyzer("gpo", choice_net())
        isolated = run_analyzer_isolated("gpo", choice_net())
        assert isolated.deadlock == inproc.deadlock
        assert isolated.states == inproc.states
        assert isolated.exhaustive == inproc.exhaustive

    def test_unknown_analyzer_rejected(self):
        from repro.harness import run_analyzer_isolated

        with pytest.raises(ValueError):
            run_analyzer_isolated("quantum", choice_net())
