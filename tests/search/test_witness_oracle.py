"""Edge counts and witness traces against a frozenset oracle.

The search graph keeps only its discovery tree and counts the other
edges, so the counts and the witnesses it derives from the tree are held
here to edge relations recomputed from scratch (``tests/oracle.py``):
``num_edges`` must equal the size of the relation, and every witness
trace must be the shortest path to a deadlock, equally near deadlocks
breaking on discovery order.
"""

import pytest
from hypothesis import HealthCheck, given, settings

import repro.analysis.reachability as full
import repro.stubborn.explorer as stubborn
import repro.unfolding.analysis as unfolding
from repro.models import asat, nsdp, over, rw
from repro.net.exceptions import UnsafeNetError
from repro.unfolding.prefix import unfold

from tests.conftest import safe_nets, state_machine_nets
from tests.oracle import (
    cut_marking,
    oracle_cut_edges,
    oracle_edges,
    oracle_witness,
)

NETS = {
    "NSDP(2)": lambda: nsdp(2),
    "OVER(3)": lambda: over(3),
    "RW(6)": lambda: rw(6),
    "ASAT(2)": lambda: asat(2),
}

COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def trace_of(result):
    return None if result.witness is None else result.witness.trace


def check_explicit(net):
    for analyzer, reduced in ((full, False), (stubborn, True)):
        relation = oracle_edges(net, reduced=reduced)
        result = analyzer.analyze(net)
        assert result.states == len(relation[0])
        assert result.edges == sum(len(out) for out in relation[1])
        expected = oracle_witness(relation, lambda m: not net.enabled_transitions(m))
        assert trace_of(result) == expected


def check_unfolding(net):
    prefix = unfold(net, max_events=None)
    relation = oracle_cut_edges(prefix)
    walk = unfolding._walk(unfolding.CutSpace(prefix), limit=None)
    assert walk.num_states == len(relation[0])
    assert walk.num_edges == sum(len(out) for out in relation[1])
    expected = oracle_witness(
        relation, lambda cut: not net.enabled_transitions(cut_marking(prefix, cut))
    )
    dead = unfolding.deadlock_via_prefix(net, prefix)
    assert (None if dead is None else dead.trace) == expected
    assert trace_of(unfolding.analyze(net, max_events=None)) == expected


@pytest.mark.parametrize("name", sorted(NETS))
def test_explicit_counts_and_witness(name):
    check_explicit(NETS[name]())


@pytest.mark.parametrize("name", sorted(NETS))
def test_unfolding_counts_and_witness(name):
    check_unfolding(NETS[name]())


@given(net=state_machine_nets())
@settings(**COMMON)
def test_state_machine_nets(net):
    check_explicit(net)
    check_unfolding(net)


@given(net=safe_nets())
@settings(**COMMON)
def test_random_nets(net):
    try:
        oracle_edges(net)
    except UnsafeNetError:
        return  # unsafe instance: outside every analyzer's scope
    check_explicit(net)
    check_unfolding(net)
