"""The timed analyzer as an ordinary job: subject checks, keys, oracle.

``timed`` is an entry of :data:`repro.engine.jobs.ANALYZERS` like the
untimed analyzers.  Its subject is a :class:`TimedPetriNet` or a plain
net, which runs as its ``[0, inf)`` wrapper; the state classes of that
wrapper are exactly the skeleton's reachable markings, so full search is
a free oracle for it.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.engine.jobs import Budget, VerificationJob, execute_job
from repro.engine.portfolio import run_race
from repro.models import asat, nsdp, over, rw
from repro.net import parse_timed_net
from repro.props.decide import decide
from repro.timed.tpn import TimedPetriNet

#: ``good`` preempts ``bad``, so the timed net never reaches ``r``; the
#: untimed skeleton deadlocks there.
RACE_NET = (
    "place p marked\nplace q\nplace r\n"
    "trans good : p -> q @ [0,1]\n"
    "trans back : q -> p\n"
    "trans bad : p -> r @ [5,6]\n"
)

ORACLE_NETS = [nsdp(2), nsdp(3), nsdp(4), rw(6), over(3), asat(2)]


@pytest.mark.parametrize("net", ORACLE_NETS, ids=lambda net: net.name)
def test_plain_net_timed_job_matches_full(net):
    timed = execute_job(VerificationJob(net, "timed"))
    full = execute_job(VerificationJob(net, "full"))
    assert timed.analyzer == "timed"
    assert timed.exhaustive and full.exhaustive
    assert (timed.states, timed.edges) == (full.states, full.edges)
    assert timed.deadlock == full.deadlock


def test_max_states_bounds_the_state_classes():
    result = execute_job(
        VerificationJob(nsdp(4), "timed", budget=Budget(max_states=5))
    )
    assert not result.exhaustive
    assert result.states <= 5


class TestSubjectCheck:
    def test_timed_subject_with_untimed_method_is_refused(self):
        with pytest.raises(ValueError, match="timed analyzer"):
            VerificationJob(parse_timed_net(RACE_NET), "full")

    def test_timed_subject_with_reduction_is_refused(self):
        with pytest.raises(ValueError, match="without reduction"):
            VerificationJob(parse_timed_net(RACE_NET), "timed", reduce="auto")

    def test_race_refuses_before_any_worker_starts(self):
        with pytest.raises(ValueError):
            run_race(parse_timed_net(RACE_NET), methods=("timed",),
                     reduce="auto", jobs=2)


class TestCacheKeys:
    def test_timed_key_differs_from_its_skeleton(self):
        tpn = parse_timed_net(RACE_NET)
        assert (
            VerificationJob(tpn, "timed").cache_key_material()
            != VerificationJob(tpn.net, "timed").cache_key_material()
        )

    def test_one_changed_interval_changes_the_key(self):
        tpn = parse_timed_net(RACE_NET)
        moved = parse_timed_net(RACE_NET.replace("@ [5,6]", "@ [5,7]"))
        assert tpn.canonical_hash() != moved.canonical_hash()
        assert (
            VerificationJob(tpn, "timed").cache_key_material()
            != VerificationJob(moved, "timed").cache_key_material()
        )

    def test_interval_declaration_order_does_not_change_the_hash(self):
        skeleton = parse_timed_net(RACE_NET).net
        intervals = {"good": (0, 1), "back": (0, None), "bad": (5, 6)}
        reordered = dict(reversed(list(intervals.items())))
        assert (
            TimedPetriNet(skeleton, intervals).canonical_hash()
            == TimedPetriNet(skeleton, reordered).canonical_hash()
        )

    def test_untimed_key_is_pinned(self):
        # Recorded before the timed analyzer became a job subject: the
        # key material of every untimed job is byte-identical.
        job = VerificationJob(
            nsdp(2), "full", budget=Budget(max_states=1000, max_seconds=5.0)
        )
        material = job.cache_key_material()
        assert material == (
            "v2\n"
            "01313c206234be4781bf92fb0636e9b44af08bdd1a70b9e7fe942bb983aad00a\n"
            "method=full\n"
            "property=4f6c0efa1a0f9935d690952daeb37c167e7732678bd34eca7503833ca53893ea\n"
            "states=1000;seconds=5.0;"
        )
        assert hashlib.sha256(material.encode("utf-8")).hexdigest() == (
            "65ac7d5d5a13bd79cf47f364d39758423d44680d4539ce32ccc629f831daad47"
        )


class TestDecide:
    def test_timed_subject_races_timed_alone(self):
        decision = decide(parse_timed_net(RACE_NET), "deadlock")
        assert decision.holds is False
        assert decision.result.analyzer == "timed"

    def test_skeleton_deadlocks(self):
        decision = decide(
            parse_timed_net(RACE_NET).net, "deadlock", use_static=False
        )
        assert decision.holds is True

    def test_safe_on_a_timed_subject_is_refused(self):
        decision = decide(parse_timed_net(RACE_NET), "safe")
        assert decision.holds is None
        assert "timed" in dict(decision.dropped)
