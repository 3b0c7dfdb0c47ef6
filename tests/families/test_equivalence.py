"""Property tests: BDD families agree with the frozenset family oracle.

Random sequences of family operations are executed on
:class:`~repro.families.BddFamily` and on the test-only
:class:`~tests.oracle.ExplicitFamily` in lock-step; after every step the
materialized set families must agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.families import BddContext
from tests.oracle import ExplicitContext

UNIVERSE = 5


def subsets():
    return st.frozensets(
        st.integers(min_value=0, max_value=UNIVERSE - 1), max_size=UNIVERSE
    )


def families_raw():
    return st.frozensets(subsets(), max_size=6)


@given(left=families_raw(), right=families_raw())
@settings(max_examples=150, deadline=None)
def test_binary_ops_agree(left, right):
    exp_ctx = ExplicitContext(UNIVERSE)
    bdd_ctx = BddContext(UNIVERSE)
    exp_l, exp_r = exp_ctx.from_sets(left), exp_ctx.from_sets(right)
    bdd_l, bdd_r = bdd_ctx.from_sets(left), bdd_ctx.from_sets(right)

    for op in ("union", "intersect", "difference"):
        exp_result = getattr(exp_l, op)(exp_r)
        bdd_result = getattr(bdd_l, op)(bdd_r)
        assert exp_result.as_frozensets() == bdd_result.as_frozensets(), op
        assert exp_result.count() == bdd_result.count(), op
        assert exp_result.is_empty() == bdd_result.is_empty(), op


@given(raw=st.lists(families_raw(), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_nary_ops_agree(raw):
    exp_ctx = ExplicitContext(UNIVERSE)
    bdd_ctx = BddContext(UNIVERSE)
    exp = [exp_ctx.from_sets(f) for f in raw]
    bdd = [bdd_ctx.from_sets(f) for f in raw]
    for op in ("union_all", "intersect_all"):
        exp_result = getattr(exp_ctx, op)(exp)
        bdd_result = getattr(bdd_ctx, op)(bdd)
        assert exp_result.as_frozensets() == bdd_result.as_frozensets(), op


@given(family=families_raw(), t=st.integers(min_value=0, max_value=UNIVERSE - 1))
@settings(max_examples=150, deadline=None)
def test_filter_contains_agrees(family, t):
    exp = ExplicitContext(UNIVERSE).from_sets(family).filter_contains(t)
    bdd = BddContext(UNIVERSE).from_sets(family).filter_contains(t)
    assert exp.as_frozensets() == bdd.as_frozensets()


@given(family=families_raw(), probe=subsets())
@settings(max_examples=150, deadline=None)
def test_contains_agrees(family, probe):
    exp = ExplicitContext(UNIVERSE).from_sets(family)
    bdd = BddContext(UNIVERSE).from_sets(family)
    assert exp.contains(probe) == bdd.contains(probe)


@given(left=families_raw(), right=families_raw())
@settings(max_examples=150, deadline=None)
def test_subset_and_equality_agree(left, right):
    exp_ctx = ExplicitContext(UNIVERSE)
    bdd_ctx = BddContext(UNIVERSE)
    assert exp_ctx.from_sets(left).is_subset(
        exp_ctx.from_sets(right)
    ) == bdd_ctx.from_sets(left).is_subset(bdd_ctx.from_sets(right))
    assert (exp_ctx.from_sets(left) == exp_ctx.from_sets(right)) == (
        bdd_ctx.from_sets(left) == bdd_ctx.from_sets(right)
    )


@given(
    edges=st.sets(
        st.tuples(
            st.integers(min_value=0, max_value=UNIVERSE - 1),
            st.integers(min_value=0, max_value=UNIVERSE - 1),
        ).filter(lambda e: e[0] != e[1]),
        max_size=8,
    )
)
@settings(max_examples=150, deadline=None)
def test_maximal_independent_sets_agree(edges):
    adjacency = [set() for _ in range(UNIVERSE)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    exp = ExplicitContext(UNIVERSE).maximal_independent_sets(adjacency)
    bdd = BddContext(UNIVERSE).maximal_independent_sets(adjacency)
    assert exp.as_frozensets() == bdd.as_frozensets()
    # Cross-check the defining property on the explicit result.
    for mis in exp.iter_sets():
        for u in mis:
            assert not (adjacency[u] & mis), "independence violated"
        for outside in set(range(UNIVERSE)) - mis:
            assert adjacency[outside] & mis, "maximality violated"
