"""``r0`` by conflict component against the global-clause construction.

:meth:`BddContext.maximal_independent_sets` builds one family per
connected component of the conflict graph and conjoins them.  The oracle
here is the construction it replaced: one global list of clauses —
``¬(x_t ∧ x_u)`` per edge for independence, ``x_t ∨ ⋁ x_u`` per vertex
for maximality — conjoined in one pass.  Both run in the same manager,
so ROBDD canonicity demands the very same node.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.families import BddContext
from repro.harness.table1 import DEFAULT_SIZES, PROBLEMS
from repro.net.structure import StructuralInfo
from tests.oracle import ExplicitContext


def global_clause_mis(ctx: BddContext, adjacency) -> int:
    """Maximal independent sets as one conjunction of global clauses."""
    mgr = ctx.mgr
    n = ctx.num_transitions
    conjuncts = []
    for t in range(n):
        for u in adjacency[t]:
            if u > t:
                conjuncts.append(
                    mgr.not_(mgr.and_(mgr.var(t), mgr.var(u)))
                )
    for t in range(n):
        clause = mgr.var(t)
        for u in adjacency[t]:
            clause = mgr.or_(clause, mgr.var(u))
        conjuncts.append(clause)
    return mgr.and_all(conjuncts)


def random_graph(rng: random.Random, n: int, density: float):
    adjacency = [set() for _ in range(n)]
    for t in range(n):
        for u in range(t + 1, n):
            if rng.random() < density:
                adjacency[t].add(u)
                adjacency[u].add(t)
    return adjacency


TABLE1 = [(p, n) for p, sizes in DEFAULT_SIZES.items() for n in sizes]


@pytest.mark.parametrize("problem,size", TABLE1)
def test_table1_conflict_graphs(problem, size):
    net = PROBLEMS[problem](size)
    adjacency = StructuralInfo(net).adjacency
    ctx = BddContext(net.num_transitions)
    r0 = ctx.maximal_independent_sets(adjacency)
    assert r0.node == global_clause_mis(ctx, adjacency)


@given(
    n=st.integers(min_value=1, max_value=12),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_random_graphs(n, density, seed):
    adjacency = random_graph(random.Random(seed), n, density)
    ctx = BddContext(n)
    r0 = ctx.maximal_independent_sets(adjacency)
    assert r0.node == global_clause_mis(ctx, adjacency)


@pytest.mark.parametrize("seed", range(40))
def test_seeded_graphs_against_enumeration(seed):
    # Larger graphs, scattered labels (components interleave in the
    # variable order), checked against Bron–Kerbosch enumeration too.
    rng = random.Random(seed)
    n = rng.randint(8, 16)
    adjacency = random_graph(rng, n, rng.choice((0.1, 0.25, 0.5, 0.8)))
    ctx = BddContext(n)
    r0 = ctx.maximal_independent_sets(adjacency)
    assert r0.node == global_clause_mis(ctx, adjacency)
    explicit = ExplicitContext(n).maximal_independent_sets(adjacency)
    assert r0.as_frozensets() == explicit.as_frozensets()


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        BddContext(3).maximal_independent_sets([set(), set()])
