"""Golden state/edge counts on the Table 1 families at small sizes.

These counts were captured from the frozenset reference implementation
before the bitmask marking kernel landed.  The kernel analyzers
(``kernel=True``) and the frozenset oracle of :mod:`tests.oracle`
(``kernel=False``) must both keep reproducing them exactly.  A drift
here means a semantics change, not a perf change.
"""

import pytest

import repro.analysis.reachability as full
import repro.gpo.analysis as gpo
import repro.stubborn.explorer as stubborn
from repro.models import asat, nsdp, over, rw

from tests.oracle import oracle_explore, oracle_explore_reduced

#: problem -> (full, stubborn, gpo) golden (states, edges, deadlock).
GOLDEN = {
    ("NSDP", 2): ((17, 28, True), (15, 24, True), (2, 1, True)),
    ("NSDP", 4): ((341, 1160, True), (244, 631, True), (2, 1, True)),
    ("ASAT", 2): ((36, 66, False), (16, 17, False), (10, 10, False)),
    ("OVER", 2): ((16, 20, True), (15, 18, True), (2, 1, True)),
    ("OVER", 3): ((62, 120, True), (41, 61, True), (2, 1, True)),
    ("RW", 6): ((70, 396, False), (70, 396, False), (4, 4, False)),
}

BUILDERS = {"NSDP": nsdp, "ASAT": asat, "OVER": over, "RW": rw}


@pytest.mark.parametrize("problem,size", sorted(GOLDEN))
@pytest.mark.parametrize("kernel", [False, True])
def test_full_and_stubborn_counts(problem, size, kernel):
    net = BUILDERS[problem](size)
    full_golden, stubborn_golden, _ = GOLDEN[(problem, size)]
    if kernel:
        for analyzer, golden in ((full, full_golden), (stubborn, stubborn_golden)):
            result = analyzer.analyze(net)
            assert (result.states, result.edges, result.deadlock) == golden
    else:
        for explore, golden in (
            (oracle_explore, full_golden),
            (oracle_explore_reduced, stubborn_golden),
        ):
            graph = explore(net)
            counts = (graph.num_states, graph.num_edges, bool(graph.deadlocks))
            assert counts == golden


@pytest.mark.parametrize("problem,size", sorted(GOLDEN))
def test_gpo_counts(problem, size):
    net = BUILDERS[problem](size)
    _, _, gpo_golden = GOLDEN[(problem, size)]
    result = gpo.analyze(net)
    assert (result.states, result.edges, result.deadlock) == gpo_golden
