"""Unit tests for the frozenset family oracle in ``tests/oracle.py``."""

import pytest

from tests.oracle import ExplicitContext


@pytest.fixture
def ctx():
    return ExplicitContext(4)


def fam(ctx, *sets):
    return ctx.from_sets(frozenset(s) for s in sets)


class TestConstruction:
    def test_empty(self, ctx):
        family = ctx.empty()
        assert family.is_empty()
        assert family.count() == 0
        assert not family

    def test_singleton(self, ctx):
        family = ctx.singleton(frozenset({0, 2}))
        assert family.count() == 1
        assert family.contains(frozenset({0, 2}))
        assert not family.contains(frozenset({0}))

    def test_from_sets_dedups(self, ctx):
        family = fam(ctx, {0}, {0}, {1})
        assert family.count() == 2

    def test_out_of_universe_rejected(self, ctx):
        with pytest.raises(ValueError):
            ctx.singleton(frozenset({9}))
        with pytest.raises(ValueError):
            ctx.from_sets([frozenset({4})])


class TestAlgebra:
    def test_union_intersect_difference(self, ctx):
        left = fam(ctx, {0}, {1})
        right = fam(ctx, {1}, {2})
        assert left.union(right).count() == 3
        assert left.intersect(right) == fam(ctx, {1})
        assert left.difference(right) == fam(ctx, {0})

    def test_filter_contains(self, ctx):
        family = fam(ctx, {0, 1}, {1, 2}, {2, 3})
        assert family.filter_contains(1) == fam(ctx, {0, 1}, {1, 2})
        assert family.filter_contains(0).count() == 1

    def test_is_subset(self, ctx):
        small = fam(ctx, {1})
        big = fam(ctx, {1}, {2})
        assert small.is_subset(big)
        assert not big.is_subset(small)

    def test_union_all_intersect_all(self, ctx):
        families = [fam(ctx, {0}), fam(ctx, {1}), fam(ctx, {0})]
        assert ctx.union_all(families).count() == 2
        common = [fam(ctx, {0}, {1}), fam(ctx, {1}, {2})]
        assert ctx.intersect_all(common) == fam(ctx, {1})
        with pytest.raises(ValueError):
            ctx.intersect_all([])


class TestQueries:
    def test_iter_sets_deterministic(self, ctx):
        family = fam(ctx, {2}, {0, 1}, {1})
        assert list(family.iter_sets()) == list(family.iter_sets())

    def test_iter_limit(self, ctx):
        family = fam(ctx, {0}, {1}, {2})
        assert len(list(family.iter_sets(limit=2))) == 2

    def test_any_set(self, ctx):
        assert ctx.empty().any_set() is None
        family = fam(ctx, {1, 2})
        assert family.any_set() == frozenset({1, 2})

    def test_as_frozensets(self, ctx):
        family = fam(ctx, {0}, {1})
        assert family.as_frozensets() == frozenset(
            {frozenset({0}), frozenset({1})}
        )

    def test_hash_equality(self, ctx):
        assert fam(ctx, {0}, {1}) == fam(ctx, {1}, {0})
        assert hash(fam(ctx, {0})) == hash(fam(ctx, {0}))

    def test_repr_sorted(self, ctx):
        assert "ExplicitFamily" in repr(fam(ctx, {1, 0}))


class TestMaximalIndependentSets:
    def test_two_cliques(self):
        ctx = ExplicitContext(4)
        adjacency = [{1}, {0}, {3}, {2}]
        mis = ctx.maximal_independent_sets(adjacency)
        assert mis.as_frozensets() == frozenset(
            {
                frozenset({0, 2}),
                frozenset({0, 3}),
                frozenset({1, 2}),
                frozenset({1, 3}),
            }
        )

    def test_isolated_vertex_in_every_set(self):
        ctx = ExplicitContext(3)
        mis = ctx.maximal_independent_sets([{1}, {0}, set()])
        for v in mis.iter_sets():
            assert 2 in v

    def test_triangle(self):
        ctx = ExplicitContext(3)
        mis = ctx.maximal_independent_sets([{1, 2}, {0, 2}, {0, 1}])
        assert mis.as_frozensets() == frozenset(
            {frozenset({0}), frozenset({1}), frozenset({2})}
        )

    def test_path_graph(self):
        # path 0-1-2-3: MIS = {0,2}, {0,3}, {1,3}
        ctx = ExplicitContext(4)
        mis = ctx.maximal_independent_sets([{1}, {0, 2}, {1, 3}, {2}])
        assert mis.count() == 3

    def test_empty_graph_single_set(self):
        ctx = ExplicitContext(3)
        mis = ctx.maximal_independent_sets([set(), set(), set()])
        assert mis.as_frozensets() == frozenset({frozenset({0, 1, 2})})

    def test_size_mismatch_rejected(self):
        ctx = ExplicitContext(2)
        with pytest.raises(ValueError):
            ctx.maximal_independent_sets([set()])
