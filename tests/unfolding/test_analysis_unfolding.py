"""Completeness and deadlock tests for prefix-based analysis."""

import time

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import has_deadlock, reachable_markings
from repro.analysis.stats import (
    Deadline,
    ExplorationLimitReached,
    TimeLimitReached,
)
from repro.engine.jobs import Budget, VerificationJob, execute_job
from repro.models import (
    bounded_buffer,
    choice_net,
    conflict_pairs_net,
    nsdp,
    over,
    rw,
)
from repro.reduce.trace import replay
from repro.unfolding import analyze, deadlock_via_prefix, prefix_markings, unfold
from repro.unfolding.analysis import LIMIT_NOTE
from tests.conftest import state_machine_nets

#: A property that holds on every RW instance (writers exclude each other).
RW_MUTEX = "invariant(!(writing0 & writing1))"


class TestCompleteness:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: choice_net(),
            lambda: conflict_pairs_net(3),
            lambda: nsdp(2),
            lambda: over(2),
            lambda: rw(3),
            lambda: bounded_buffer(1, 1, 1),
        ],
    )
    def test_prefix_represents_every_reachable_marking(self, make):
        net = make()
        prefix = unfold(net)
        assert prefix_markings(prefix) == reachable_markings(net)


class TestDeadlock:
    @pytest.mark.parametrize(
        "make,expected",
        [
            (lambda: nsdp(2), True),
            (lambda: over(2), True),
            (lambda: rw(3), False),
            (lambda: bounded_buffer(1, 1, 1), False),
        ],
    )
    def test_verdicts(self, make, expected):
        net = make()
        witness = deadlock_via_prefix(net, unfold(net))
        assert (witness is not None) == expected
        if witness is not None:
            dead = net.marking_from_names(witness.marking)
            assert net.is_deadlocked(dead)
            assert replay(net, witness.trace) == dead


class TestAnalyze:
    def test_result_fields(self):
        result = analyze(nsdp(2))
        assert result.analyzer == "unfolding"
        assert result.deadlock
        assert result.extras["cutoffs"] > 0
        assert result.witness is not None

    def test_truncated_reports_non_exhaustive(self):
        result = analyze(nsdp(3), max_events=10)
        assert not result.exhaustive
        assert not result.deadlock  # verdict withheld

    def test_time_budget_covers_the_prefix_walk(self):
        # RW(15) unfolds in a few milliseconds but its prefix walk takes
        # seconds; the budget must stop the walk, not just the unfolding.
        started = time.perf_counter()
        result = analyze(rw(15), max_seconds=0.1)
        assert time.perf_counter() - started < 0.5
        assert not result.exhaustive
        assert not result.deadlock  # verdict withheld
        assert result.extras["aborted"] == "> 0.1s"

    def test_time_budget_covers_the_property_walk(self):
        result = analyze(rw(15), max_seconds=0.1, prop=RW_MUTEX)
        assert not result.exhaustive
        assert result.extras["property_holds"] is None
        assert "aborted" in result.extras


class TestEnumerationLimit:
    """RW(15)'s complete prefix has more cuts than the walk may store."""

    def test_deadlock_walk_is_bounded(self):
        result = analyze(rw(15))
        assert not result.exhaustive
        assert not result.deadlock  # verdict withheld
        assert result.extras["aborted"] == LIMIT_NOTE

    def test_property_walk_is_bounded(self):
        result = analyze(rw(15), prop=RW_MUTEX)
        assert not result.exhaustive
        assert result.extras["property_holds"] is None
        assert result.extras["aborted"] == LIMIT_NOTE

    def test_job_ends_in_the_bounded_result(self):
        result = execute_job(VerificationJob(rw(15), "unfolding", Budget()))
        assert not result.exhaustive
        assert not result.deadlock
        assert result.extras["aborted"] == LIMIT_NOTE

    def test_prefix_markings_raises(self):
        with pytest.raises(ExplorationLimitReached) as raised:
            prefix_markings(unfold(rw(6)), limit=10)
        assert raised.value.states_explored == 10


class TestPrefixDeadline:
    def test_expired_deadline_stops_the_walk(self):
        net = over(2)
        prefix = unfold(net)
        with pytest.raises(TimeLimitReached) as raised:
            deadlock_via_prefix(net, prefix, deadline=Deadline(0.0))
        assert raised.value.states_explored == 1

    def test_open_deadline_changes_nothing(self):
        net = over(2)
        prefix = unfold(net)
        assert prefix_markings(
            prefix, deadline=Deadline(60.0)
        ) == prefix_markings(prefix)


@given(net=state_machine_nets())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_completeness_property(net):
    prefix = unfold(net, max_events=3000)
    if prefix.num_events >= 3000:
        return  # truncated: completeness not claimed
    assert prefix_markings(prefix, limit=50_000) == reachable_markings(
        net, max_states=50_000
    )
