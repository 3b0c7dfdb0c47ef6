"""Property tests: the BDD engine against brute-force truth tables.

Random Boolean expressions are compiled to BDDs and compared with direct
evaluation on every assignment; quantifiers and counts are checked against
their enumeration semantics.  This pins down the engine the symbolic
baseline and the GPN family backend both stand on.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import (
    BddManager,
    Var,
    Const,
    exists,
    forall,
    iter_models,
    relprod,
    restrict,
    satcount,
    substitute,
)

VARS = ["a", "b", "c", "d"]
LEVELS = {name: i for i, name in enumerate(VARS)}


def exprs(depth=3):
    base = st.one_of(
        st.sampled_from([Var(v) for v in VARS]),
        st.sampled_from([Const(True), Const(False)]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: p[0] & p[1]),
            st.tuples(children, children).map(lambda p: p[0] | p[1]),
            st.tuples(children, children).map(lambda p: p[0] ^ p[1]),
            st.tuples(children, children).map(lambda p: p[0] >> p[1]),
            st.tuples(children, children).map(lambda p: p[0].iff(p[1])),
            children.map(lambda e: ~e),
        )

    return st.recursive(base, extend, max_leaves=12)


def assignments():
    return list(product([False, True], repeat=len(VARS)))


def as_level_map(values):
    return {LEVELS[name]: value for name, value in zip(VARS, values)}


def as_name_map(values):
    return dict(zip(VARS, values))


@given(expr=exprs())
@settings(max_examples=200, deadline=None)
def test_compilation_matches_evaluation(expr):
    mgr = BddManager()
    node = expr.to_bdd(mgr, LEVELS)
    for values in assignments():
        assert mgr.evaluate(node, as_level_map(values)) == expr.evaluate(
            as_name_map(values)
        )


@given(expr=exprs())
@settings(max_examples=100, deadline=None)
def test_satcount_matches_enumeration(expr):
    mgr = BddManager()
    mgr.declare(len(VARS))
    node = expr.to_bdd(mgr, LEVELS)
    expected = sum(
        expr.evaluate(as_name_map(values)) for values in assignments()
    )
    assert satcount(mgr, node, len(VARS)) == expected
    assert len(list(iter_models(mgr, node, range(len(VARS))))) == expected


@given(expr=exprs(), var=st.sampled_from(VARS), value=st.booleans())
@settings(max_examples=100, deadline=None)
def test_restrict_matches_semantics(expr, var, value):
    mgr = BddManager()
    node = expr.to_bdd(mgr, LEVELS)
    restricted = restrict(mgr, node, LEVELS[var], value)
    for values in assignments():
        forced = dict(as_name_map(values))
        forced[var] = value
        assert mgr.evaluate(
            restricted, as_level_map(values)
        ) == expr.evaluate(forced)


@given(expr=exprs(), var=st.sampled_from(VARS))
@settings(max_examples=100, deadline=None)
def test_quantifiers_match_semantics(expr, var):
    mgr = BddManager()
    node = expr.to_bdd(mgr, LEVELS)
    exists_node = exists(mgr, node, [LEVELS[var]])
    forall_node = forall(mgr, node, [LEVELS[var]])
    for values in assignments():
        name_map = as_name_map(values)
        branches = [
            expr.evaluate({**name_map, var: False}),
            expr.evaluate({**name_map, var: True}),
        ]
        level_map = as_level_map(values)
        assert mgr.evaluate(exists_node, level_map) == any(branches)
        assert mgr.evaluate(forall_node, level_map) == all(branches)


@given(left=exprs(), right=exprs(), var=st.sampled_from(VARS))
@settings(max_examples=100, deadline=None)
def test_relprod_equals_exists_of_and(left, right, var):
    mgr = BddManager()
    f = left.to_bdd(mgr, LEVELS)
    g = right.to_bdd(mgr, LEVELS)
    level = LEVELS[var]
    assert relprod(mgr, f, g, [level]) == exists(
        mgr, mgr.and_(f, g), [level]
    )


@given(expr=exprs())
@settings(max_examples=100, deadline=None)
def test_canonicity(expr):
    # Compiling twice (even via different managers) yields equal structure:
    # same node id in one manager, isomorphic evaluation across managers.
    mgr = BddManager()
    assert expr.to_bdd(mgr, LEVELS) == expr.to_bdd(mgr, LEVELS)


def literal_lists():
    """Sorted ``(level, need, put)`` literals over a subset of VARS."""
    return st.lists(
        st.tuples(st.sampled_from(range(len(VARS))), st.booleans(), st.booleans()),
        max_size=len(VARS),
        unique_by=lambda lit: lit[0],
    ).map(sorted)


@given(expr=exprs(), literals=literal_lists())
@settings(max_examples=200, deadline=None)
def test_substitute_matches_quantify_then_assign(expr, literals):
    mgr = BddManager()
    f = expr.to_bdd(mgr, LEVELS)
    guard = mgr.and_all(
        mgr.var(at) if need else mgr.nvar(at) for at, need, _ in literals
    )
    quantified = exists(mgr, mgr.and_(f, guard), [at for at, _, _ in literals])
    expected = mgr.and_all(
        [quantified]
        + [mgr.var(at) if put else mgr.nvar(at) for at, _, put in literals]
    )
    assert substitute(mgr, f, literals) == expected
