"""Differential guarantee: reduction never changes an answer.

Random safe nets (hypothesis) and every Table 1 family are analyzed
reduced and unreduced; conclusive verdicts must agree, count-level
reductions must keep exact state/edge counts, and every mapped witness
must stand up on the original net (trace replay or dead-verified
marking).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import analyze as full_analyze
from repro.engine.jobs import Budget, VerificationJob, execute_job
from repro.harness.table1 import PROBLEMS
from repro.net.exceptions import UnsafeNetError
from repro.reduce import back_map_witness, reduce_net, replay

from ..conftest import state_machine_nets

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_BUDGET = {"max_states": 3000, "max_seconds": 20.0}

_FAMILY_SIZES = {"NSDP": 4, "ASAT": 4, "OVER": 4, "RW": 4}


class TestRandomNets:
    @_SETTINGS
    @given(net=state_machine_nets())
    def test_deadlock_verdict_invariant_under_reduction(self, net):
        reduction = reduce_net(net, level="deadlock")
        try:
            base = full_analyze(net, **_BUDGET)
            shrunk = full_analyze(reduction.net, **_BUDGET)
        except UnsafeNetError:
            return
        if not (base.exhaustive and shrunk.exhaustive):
            return
        assert base.deadlock == shrunk.deadlock
        if shrunk.deadlock and shrunk.witness is not None:
            witness = back_map_witness(net, reduction.trace, shrunk.witness)
            if witness.trace:
                assert net.is_deadlocked(replay(net, witness.trace))

    @_SETTINGS
    @given(net=state_machine_nets())
    def test_count_level_keeps_exact_counts(self, net):
        reduction = reduce_net(net, level="count")
        try:
            base = full_analyze(net, **_BUDGET)
            shrunk = full_analyze(reduction.net, **_BUDGET)
        except UnsafeNetError:
            return
        if not (base.exhaustive and shrunk.exhaustive):
            return
        assert (base.states, base.edges) == (shrunk.states, shrunk.edges)
        assert base.deadlock == shrunk.deadlock


class TestTable1Families:
    @pytest.mark.parametrize("family", sorted(_FAMILY_SIZES))
    @pytest.mark.parametrize(
        "method", ["full", "stubborn", "gpo", "symbolic"]
    )
    def test_analyzer_verdict_matches_unreduced(self, family, method):
        net = PROBLEMS[family](_FAMILY_SIZES[family])
        budget = Budget(max_states=50_000, max_seconds=60.0)
        base = execute_job(VerificationJob(net, method, budget))
        shrunk = execute_job(
            VerificationJob(net, method, budget, reduce="auto")
        )
        assert base.deadlock == shrunk.deadlock
        assert shrunk.reduction is not None
        assert shrunk.reduction["pre"][0] >= shrunk.reduction["post"][0]
        assert "replay_error" not in shrunk.reduction
        if shrunk.deadlock and shrunk.witness is not None:
            # back_map_witness already dead-verified the marking; check
            # the trace (when one survived mapping) replays end to end.
            if shrunk.witness.trace:
                final = replay(net, shrunk.witness.trace)
                assert net.is_deadlocked(final)
            else:
                marking = net.marking_from_names(shrunk.witness.marking)
                assert net.is_deadlocked(marking)

    @pytest.mark.parametrize("family", sorted(_FAMILY_SIZES))
    def test_every_family_measurably_reduced(self, family):
        net = PROBLEMS[family](_FAMILY_SIZES[family])
        reduction = reduce_net(net, level="deadlock")
        assert reduction.reduced
        pre, post = reduction.sizes()
        assert post[1] < pre[1]  # strictly fewer transitions

    def test_count_level_rw_counts_match_exactly(self):
        net = PROBLEMS["RW"](4)
        reduction = reduce_net(net, level="count")
        assert reduction.reduced and reduction.counts_preserved
        base = full_analyze(net)
        shrunk = full_analyze(reduction.net)
        assert (base.states, base.edges) == (shrunk.states, shrunk.edges)
