"""Tests for the §3.3 analysis procedure and its result packaging."""

import pytest

from repro.analysis import ExplorationLimitReached
from repro.gpo import GpoOptions, analyze, explore_gpo
from repro.models import (
    asat,
    choice_net,
    concurrent_net,
    conflict_pairs_net,
    figure3_net,
    nsdp,
    over,
    rw,
)
from repro.obs import names
from repro.obs.summary import build_summary
from repro.obs.tracer import Tracer, activate
from tests.oracle import discovery_tree, oracle_explore_gpo

#: Family representation -> GPO explorer.
EXPLORERS = {"explicit": oracle_explore_gpo, "bdd": explore_gpo}


class TestHeadlineClaims:
    def test_figure2_two_states(self):
        # §3.1: "from 2^(N+1) - 1 to only 2 computed states!"
        for n in (1, 2, 4, 8, 12):
            result = explore_gpo(conflict_pairs_net(n))
            assert result.graph.num_states == 2

    def test_figure1_two_states(self):
        # n concurrent transitions fire simultaneously.
        for n in (1, 3, 6):
            result = explore_gpo(concurrent_net(n))
            assert result.graph.num_states == 2

    def test_nsdp_constant_states(self):
        counts = {explore_gpo(nsdp(n)).graph.num_states for n in (2, 3, 4, 5)}
        assert len(counts) == 1  # independent of n (paper: 3, ours: 2)

    def test_rw_constant_states(self):
        counts = {explore_gpo(rw(n)).graph.num_states for n in (2, 4, 6)}
        assert len(counts) == 1

    def test_asat_grows_slowly(self):
        a2 = explore_gpo(asat(2)).graph.num_states
        a4 = explore_gpo(asat(4)).graph.num_states
        assert a2 < a4 <= a2 + 6  # paper: 8 -> 14


class TestVerdicts:
    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: nsdp(3), True),
            (lambda: over(3), True),
            (lambda: choice_net(), True),
            (lambda: rw(3), False),
            (lambda: asat(2), False),
        ],
    )
    def test_deadlock_verdicts(self, make, expected):
        assert analyze(make()).deadlock == expected
        assert oracle_explore_gpo(make()).has_deadlock == expected

    def test_live_cycle(self, loop_net):
        result = analyze(loop_net)
        assert not result.deadlock
        assert result.states == 2  # one multiple fire per direction... hmm

    def test_witness_marking_is_real_deadlock(self):
        net = nsdp(3)
        result = analyze(net)
        assert result.witness is not None
        marking = net.marking_from_names(result.witness.marking)
        assert net.is_deadlocked(marking)

    def test_extras(self):
        result = analyze(conflict_pairs_net(4))
        assert result.extras["scenarios"] == 16
        assert "backend" not in result.extras
        assert result.extras["deadlock_states"] >= 1


class TestOptions:
    def test_stop_all_stops_early(self):
        opts = GpoOptions(on_deadlock="stop-all")
        result = explore_gpo(figure3_net(), opts)
        assert len(result.deadlock_states) == 1

    def test_continue_explores_survivors(self):
        stop = explore_gpo(figure3_net())
        cont = explore_gpo(figure3_net(), GpoOptions(on_deadlock="continue"))
        assert cont.graph.num_states >= stop.graph.num_states
        assert cont.has_deadlock

    def test_max_states(self):
        with pytest.raises(ExplorationLimitReached):
            explore_gpo(
                asat(4),
                GpoOptions(max_states=2),
            )

    def test_witnesses_limit(self):
        result = explore_gpo(
            conflict_pairs_net(3), GpoOptions(on_deadlock="continue")
        )
        assert len(result.witnesses(limit=None)) >= 1
        assert len(result.witnesses(limit=1)) == 1


class TestSoundnessRegressions:
    """Nets that falsified earlier, naive readings of the §3.3 procedure."""

    # Two state machines sharing two reusable resources.  The deadlock
    # path fires BOTH members of a conflict pair sequentially (c0_t0 takes
    # res1, c0_t1 returns it, c1_t0 takes it again): a single maximal
    # independent set cannot represent that execution, so a candidate
    # firing that disables the postponed c0_t0 silently loses it.  The
    # paper's candidate side-condition — implemented as a semantic veto
    # with fallback to single-firing branching — must catch this.
    REENTRANT_CONFLICT = """
    net sm
    place res0 marked
    place res1 marked
    place c0_s0 marked
    place c0_s1
    place c0_s2
    place c0_s3
    place c1_s0 marked
    place c1_s1
    place c1_s2
    place c1_s3
    trans c0_t0 : res1 c0_s0 -> c0_s1
    trans c0_t1 : res0 c0_s1 -> res1 c0_s2
    trans c0_t2 : res0 c0_s2 -> res0 c0_s3
    trans c0_t3 : c0_s3 -> res0 c0_s0
    trans c1_t0 : res1 c1_s0 -> c1_s1
    trans c1_t1 : res0 c1_s1 -> res1 c1_s2
    trans c1_t2 : c1_s2 -> c1_s3
    trans c1_t3 : c1_s3 -> res0 c1_s0
    """

    @pytest.mark.parametrize("backend", sorted(EXPLORERS, reverse=True))
    def test_reentrant_conflict_deadlock_found(self, backend):
        from repro.analysis import explore
        from repro.net import parse_net

        net = parse_net(self.REENTRANT_CONFLICT)
        full = explore(net)
        assert full.deadlocks, "the regression net must deadlock classically"
        result = EXPLORERS[backend](net)
        assert result.has_deadlock

    @pytest.mark.parametrize("backend", sorted(EXPLORERS, reverse=True))
    def test_reentrant_conflict_witness_is_real(self, backend):
        from repro.net import parse_net

        net = parse_net(self.REENTRANT_CONFLICT)
        result = EXPLORERS[backend](net)
        witness = result.witnesses(limit=1)[0]
        marking = net.marking_from_names(witness.marking)
        assert net.is_deadlocked(marking)


class TestTraceLabels:
    def test_multiple_firing_label(self):
        result = explore_gpo(choice_net())
        assert discovery_tree(result.graph) == [
            None,
            ("{a,b}", result.graph.initial),
        ]
        assert result.graph.num_edges == 1

    def test_witness_trace_uses_labels(self):
        result = explore_gpo(nsdp(2))
        witness = result.witnesses(limit=1)[0]
        assert all(step.startswith("{") or step for step in witness.trace)


class TestSpanCoverage:
    def test_rw15_analyze_self_time_is_small(self):
        # Every phase of a GPO run sits in a child span of ``analyze``
        # (certificate, gpo/gpn_build with the r0 construction, search,
        # witness), so the root's own remainder stays a sliver.
        tracer = Tracer()
        with activate(tracer):
            analyze(rw(15))
        (root,) = build_summary(tracer.records())
        assert root.name == names.SPAN_ANALYZE
        assert names.SPAN_GPN_BUILD in root.children
        assert root.self_ns <= 0.10 * root.total_ns
