"""Unit tests for the BDD-backed scenario families."""

import pytest

from repro.families import BddContext


@pytest.fixture
def ctx():
    return BddContext(4)


def fam(ctx, *sets):
    return ctx.from_sets(frozenset(s) for s in sets)


class TestConstruction:
    def test_empty(self, ctx):
        assert ctx.empty().is_empty()
        assert ctx.empty().count() == 0

    def test_singleton_exact(self, ctx):
        family = ctx.singleton(frozenset({1, 3}))
        assert family.count() == 1
        assert family.contains(frozenset({1, 3}))
        assert not family.contains(frozenset({1}))
        assert not family.contains(frozenset({0, 1, 3}))

    def test_out_of_universe_rejected(self, ctx):
        with pytest.raises(ValueError):
            ctx.level_of(4)


class TestAlgebra:
    def test_ops_match_explicit_semantics(self, ctx):
        left = fam(ctx, {0}, {1, 2})
        right = fam(ctx, {1, 2}, {3})
        assert left.union(right).count() == 3
        assert left.intersect(right).as_frozensets() == frozenset(
            {frozenset({1, 2})}
        )
        assert left.difference(right).as_frozensets() == frozenset(
            {frozenset({0})}
        )

    def test_union_all_intersect_all(self, ctx):
        families = [fam(ctx, {0}), fam(ctx, {1}), fam(ctx, {0})]
        assert ctx.union_all(families).count() == 2
        assert ctx.union_all([]).is_empty()
        common = [fam(ctx, {0}, {1}), fam(ctx, {1}, {2})]
        assert ctx.intersect_all(common) == fam(ctx, {1})
        with pytest.raises(ValueError):
            ctx.intersect_all([])

    def test_filter_contains(self, ctx):
        family = fam(ctx, {0, 1}, {1, 2}, {3})
        filtered = family.filter_contains(1)
        assert filtered.as_frozensets() == frozenset(
            {frozenset({0, 1}), frozenset({1, 2})}
        )

    def test_is_subset(self, ctx):
        assert fam(ctx, {1}).is_subset(fam(ctx, {1}, {2}))
        assert not fam(ctx, {0}).is_subset(fam(ctx, {1}))


class TestValueSemantics:
    def test_canonical_equality(self, ctx):
        # Same family built two ways -> same BDD node.
        one = fam(ctx, {0}, {1}).union(fam(ctx, {2}))
        two = fam(ctx, {2}, {1}, {0})
        assert one == two
        assert hash(one) == hash(two)

    def test_cross_context_not_equal(self):
        a, b = BddContext(3), BddContext(3)
        assert a.singleton(frozenset({0})) != b.singleton(frozenset({0}))

    def test_repr_contains_size(self, ctx):
        assert "|F|=2" in repr(fam(ctx, {0}, {1}))


class TestQueries:
    def test_iter_and_any(self, ctx):
        family = fam(ctx, {0, 2}, {1})
        sets = set(family.iter_sets())
        assert sets == {frozenset({0, 2}), frozenset({1})}
        assert family.any_set() in sets
        assert ctx.empty().any_set() is None

    def test_iter_limit(self, ctx):
        family = fam(ctx, {0}, {1}, {2}, {3})
        assert len(list(family.iter_sets(limit=3))) == 3


class TestMaximalIndependentSets:
    def test_matches_explicit_backend(self):
        from tests.oracle import ExplicitContext

        adjacency = [{1, 2}, {0}, {0, 3}, {2}, set()]
        bdd_ctx = BddContext(5)
        exp_ctx = ExplicitContext(5)
        bdd_mis = bdd_ctx.maximal_independent_sets(adjacency)
        exp_mis = exp_ctx.maximal_independent_sets(adjacency)
        assert bdd_mis.as_frozensets() == exp_mis.as_frozensets()

    def test_scales_symbolically(self):
        # 20 disjoint conflict pairs: 2^20 maximal independent sets, far
        # beyond explicit enumeration, counted without materializing.
        n = 40
        adjacency = []
        for i in range(0, n, 2):
            adjacency.append({i + 1})
            adjacency.append({i})
        ctx = BddContext(n)
        mis = ctx.maximal_independent_sets(adjacency)
        assert mis.count() == 2 ** (n // 2)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BddContext(2).maximal_independent_sets([set()])
