"""Every witness of a trace-emitting analyzer replays on the original net.

For the analyzers that report classical firing sequences (full,
stubborn, unfolding), a job's witness — found on the original net or on
a structurally reduced one and mapped back — must be a firing sequence
of the original net that ends in the witnessed marking: dead for a
deadlock, satisfying the predicate for a ``reachable(...)`` goal.
"""

import pytest

from repro.engine.jobs import Budget, VerificationJob, execute_job
from repro.models import asat, nsdp, over, rw
from repro.props import parse_property, predicate_fn
from repro.reduce.trace import replay

#: Table 1 instance -> a reachable goal that needs at least one firing.
INSTANCES = {
    "NSDP(2)": (lambda: nsdp(2), "reachable(eat0 & think1)"),
    "OVER(3)": (lambda: over(3), "reachable(passing0)"),
    "RW(6)": (lambda: rw(6), "reachable(writing0)"),
    "ASAT(2)": (lambda: asat(2), "reachable(use0 & idle1)"),
}
REDUCE = ("off", "auto")
BUDGET = Budget(max_states=20_000, max_seconds=60.0)


def _run(make, method, query, reduce):
    net = make()
    job = VerificationJob(net, method, BUDGET, query=query, reduce=reduce)
    result = execute_job(job)
    assert result.exhaustive
    assert "replay_error" not in result.extras.get("reduce", {})
    return net, result


def _replayed(net, witness):
    marking = replay(net, witness.trace)
    assert net.marking_names(marking) == witness.marking
    return marking


@pytest.mark.parametrize("reduce", REDUCE)
@pytest.mark.parametrize("instance", INSTANCES)
@pytest.mark.parametrize("method", ["full", "stubborn", "unfolding"])
def test_deadlock_witness_replays_to_a_dead_marking(method, instance, reduce):
    make, _ = INSTANCES[instance]
    net, result = _run(make, method, "deadlock", reduce)
    if not result.deadlock:
        assert result.witness is None
        return
    assert result.witness is not None
    assert net.is_deadlocked(_replayed(net, result.witness))


@pytest.mark.parametrize("reduce", REDUCE)
@pytest.mark.parametrize("instance", INSTANCES)
@pytest.mark.parametrize("method", ["full", "unfolding"])
def test_goal_witness_replays_to_a_satisfying_marking(method, instance, reduce):
    make, query = INSTANCES[instance]
    net, result = _run(make, method, query, reduce)
    assert result.extras["property_holds"] is True
    witness = result.witness
    assert witness is not None and witness.trace
    satisfies = predicate_fn(net, parse_property(query).pred)
    assert satisfies(net.marking_names(_replayed(net, witness)))

