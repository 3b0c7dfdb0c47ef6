"""The dedicated binary applies against their ``ite`` compositions.

``and_``, ``or_`` and ``diff`` each run their own memoized recursion;
``ite`` is the textbook connective they replace.  In one manager, ROBDD
canonicity makes equal functions equal node ids, so every apply must
return exactly the node the ``ite`` composition returns.  Operands are
built from random truth tables with ``mk`` alone, so they do not depend
on the operations under test.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import ONE, ZERO, BddManager, substitute
from repro.families import BddContext, BddFamily

NUM_VARS = 5
TABLE = st.integers(min_value=0, max_value=(1 << (1 << NUM_VARS)) - 1)


def from_truth_table(mgr: BddManager, table: int) -> int:
    """Node whose value on assignment ``a`` (bit ``i`` = level ``i``) is
    bit ``a`` of ``table``, built by Shannon expansion with ``mk``."""

    def build(level: int, prefix: int) -> int:
        if level == NUM_VARS:
            return ONE if (table >> prefix) & 1 else ZERO
        lo = build(level + 1, prefix)
        hi = build(level + 1, prefix | (1 << level))
        return mgr.mk(level, lo, hi)

    return build(0, 0)


def truth_table(mgr: BddManager, f: int) -> int:
    table = 0
    for a in range(1 << NUM_VARS):
        values = {level: bool((a >> level) & 1) for level in range(NUM_VARS)}
        if mgr.evaluate(f, values):
            table |= 1 << a
    return table


@given(tables=st.lists(TABLE, min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_applies_match_ite_composition(tables):
    mgr = BddManager()
    mgr.declare(NUM_VARS)
    nodes = [from_truth_table(mgr, t) for t in tables] + [ZERO, ONE]
    for f in nodes:
        for g in nodes:
            assert mgr.and_(f, g) == mgr.ite(f, g, ZERO)
            assert mgr.or_(f, g) == mgr.ite(f, ONE, g)
            assert mgr.diff(f, g) == mgr.ite(g, ZERO, f)


@given(left=TABLE, right=TABLE)
@settings(max_examples=200, deadline=None)
def test_applies_match_truth_tables(left, right):
    mgr = BddManager()
    mgr.declare(NUM_VARS)
    f, g = from_truth_table(mgr, left), from_truth_table(mgr, right)
    full = (1 << (1 << NUM_VARS)) - 1
    assert truth_table(mgr, mgr.and_(f, g)) == left & right
    assert truth_table(mgr, mgr.or_(f, g)) == left | right
    assert truth_table(mgr, mgr.diff(f, g)) == left & ~right & full


@given(tables=st.lists(TABLE, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_results_do_not_depend_on_call_order(tables):
    # Warm computed tables must give the nodes a cold manager gives.
    warm = BddManager()
    warm.declare(NUM_VARS)
    nodes = [from_truth_table(warm, t) for t in tables]
    for f in nodes:
        for g in nodes:
            warm.and_(f, g), warm.or_(g, f), warm.diff(f, g)
    for f, left in zip(nodes, tables):
        for g, right in zip(nodes, tables):
            cold = BddManager()
            cold.declare(NUM_VARS)
            cf, cg = from_truth_table(cold, left), from_truth_table(cold, right)
            for op in ("and_", "or_", "diff"):
                assert truth_table(warm, getattr(warm, op)(f, g)) == (
                    truth_table(cold, getattr(cold, op)(cf, cg))
                ), op


def test_commutative_applies_share_one_table_entry():
    mgr = BddManager()
    x, y = mgr.var(0), mgr.var(1)
    both = mgr.and_(x, y)
    calls, hits = mgr.ite_calls, mgr.ite_hits
    assert mgr.and_(y, x) == both
    assert (mgr.ite_calls, mgr.ite_hits) == (calls + 1, hits + 1)


def test_terminal_cases_never_probe():
    mgr = BddManager()
    x = mgr.var(0)
    for f in (ZERO, ONE, x):
        mgr.and_(f, ZERO), mgr.and_(ONE, f), mgr.and_(f, f)
        mgr.or_(f, ONE), mgr.or_(ZERO, f), mgr.or_(f, f)
        mgr.diff(ZERO, f), mgr.diff(f, ONE), mgr.diff(f, ZERO), mgr.diff(f, f)
    assert mgr.ite_calls == 0


@given(table=TABLE, t=st.integers(min_value=0, max_value=NUM_VARS - 1))
@settings(max_examples=200, deadline=None)
def test_filter_contains_is_conjunction_with_the_literal(table, t):
    ctx = BddContext(NUM_VARS)
    mgr = ctx.mgr
    f = from_truth_table(mgr, table)
    filtered = BddFamily(ctx, f).filter_contains(t).node
    literal = mgr.var(ctx.level_of(t))
    assert filtered == mgr.and_(f, literal)
    assert filtered == mgr.ite(f, literal, ZERO)
    assert filtered == substitute(mgr, f, ((ctx.level_of(t), True, True),))
