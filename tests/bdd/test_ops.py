"""Unit tests for quantification, relprod, substitution, renaming,
counting, models."""

from itertools import product

import pytest

from repro.bdd import (
    BddManager,
    ONE,
    ZERO,
    any_model,
    exists,
    forall,
    iter_models,
    relprod,
    rename,
    restrict,
    satcount,
    substitute,
)


@pytest.fixture
def mgr():
    return BddManager()


def make(mgr):
    """(x0 & ~x1) | x2 — the running example."""
    return mgr.or_(mgr.and_(mgr.var(0), mgr.nvar(1)), mgr.var(2))


class TestRestrict:
    def test_positive_cofactor(self, mgr):
        f = make(mgr)
        g = restrict(mgr, f, 2, True)
        assert g == ONE

    def test_negative_cofactor(self, mgr):
        f = make(mgr)
        g = restrict(mgr, f, 2, False)
        for a, b in product([False, True], repeat=2):
            assert mgr.evaluate(g, {0: a, 1: b}) == (a and not b)

    def test_missing_variable_noop(self, mgr):
        f = mgr.var(0)
        assert restrict(mgr, f, 5, True) == f


class TestQuantifiers:
    def test_exists(self, mgr):
        f = make(mgr)
        g = exists(mgr, f, [2])
        assert g == ONE  # x2=1 always satisfies

    def test_exists_multiple(self, mgr):
        f = mgr.and_(mgr.var(0), mgr.var(1))
        assert exists(mgr, f, [0, 1]) == ONE
        assert exists(mgr, ZERO, [0, 1]) == ZERO

    def test_exists_empty_set_noop(self, mgr):
        f = make(mgr)
        assert exists(mgr, f, []) == f

    def test_forall(self, mgr):
        f = mgr.or_(mgr.var(0), mgr.var(1))
        assert forall(mgr, f, [0]) != ONE
        g = forall(mgr, f, [1])  # must hold for x1 in {0,1}: needs x0
        assert g == mgr.var(0)


class TestRelprod:
    def test_equals_exists_of_and(self, mgr):
        f = make(mgr)
        g = mgr.iff(mgr.var(0), mgr.var(2))
        direct = exists(mgr, mgr.and_(f, g), [0])
        fused = relprod(mgr, f, g, [0])
        assert direct == fused

    def test_zero_operands(self, mgr):
        assert relprod(mgr, ZERO, ONE, [0]) == ZERO
        assert relprod(mgr, ONE, ZERO, [0]) == ZERO

    def test_no_quantification(self, mgr):
        f, g = mgr.var(0), mgr.var(1)
        assert relprod(mgr, f, g, []) == mgr.and_(f, g)


class TestSubstitute:
    def test_cofactor_then_assign(self, mgr):
        # (x0 & ~x1) | x2 with x0 required true, then cleared.
        g = substitute(mgr, make(mgr), [(0, True, False)])
        assert g == mgr.and_(mgr.nvar(0), mgr.or_(mgr.nvar(1), mgr.var(2)))

    def test_literal_above_and_below_root(self, mgr):
        f = mgr.var(1)
        g = substitute(mgr, f, [(0, False, True), (1, True, False), (3, False, True)])
        assert g == mgr.and_all([mgr.var(0), mgr.nvar(1), mgr.var(3)])

    def test_unmet_need_is_zero(self, mgr):
        assert substitute(mgr, mgr.nvar(0), [(0, True, True)]) == ZERO
        assert substitute(mgr, ZERO, [(0, False, True)]) == ZERO

    def test_no_literals(self, mgr):
        f = make(mgr)
        assert substitute(mgr, f, []) == f

    def test_unsorted_rejected(self, mgr):
        with pytest.raises(ValueError):
            substitute(mgr, ONE, [(2, True, True), (1, True, True)])
        with pytest.raises(ValueError):
            substitute(mgr, ONE, [(1, True, True), (1, False, True)])

    def test_check_runs_every_stride_of_built_nodes(self, mgr, monkeypatch):
        from repro.bdd import ops

        monkeypatch.setattr(ops, "CHECK_STRIDE", 2)
        f = mgr.or_all(
            mgr.and_(mgr.var(k), mgr.nvar(k + 1)) for k in range(0, 12, 2)
        )
        calls = []
        plain = substitute(mgr, f, [(13, False, True)])
        checked = substitute(
            mgr, f, [(13, False, True)], check=lambda: calls.append(1)
        )
        assert checked == plain
        assert len(calls) >= 3

    def test_raising_check_stops_the_walk(self, mgr, monkeypatch):
        from repro.bdd import ops

        class Stop(Exception):
            pass

        def stop():
            raise Stop

        monkeypatch.setattr(ops, "CHECK_STRIDE", 1)
        with pytest.raises(Stop):
            substitute(mgr, make(mgr), [(3, False, True)], check=stop)


class TestMk:
    def test_matches_ite_construction(self, mgr):
        bottom_up = mgr.mk(0, mgr.mk(2, ZERO, ONE), mgr.mk(1, ZERO, ONE))
        assert bottom_up == mgr.ite(mgr.var(0), mgr.var(1), mgr.var(2))

    def test_reduction_rule(self, mgr):
        assert mgr.mk(0, ONE, ONE) == ONE
        assert mgr.mk(3, mgr.var(4), mgr.var(4)) == mgr.var(4)


class TestRename:
    def test_shift(self, mgr):
        f = mgr.and_(mgr.var(0), mgr.var(2))
        g = rename(mgr, f, {0: 1, 2: 3})
        assert g == mgr.and_(mgr.var(1), mgr.var(3))

    def test_identity(self, mgr):
        f = make(mgr)
        assert rename(mgr, f, {}) == f

    def test_non_monotone_rejected(self, mgr):
        f = mgr.and_(mgr.var(0), mgr.var(1))
        with pytest.raises(ValueError):
            rename(mgr, f, {0: 3, 1: 2})


class TestSatcount:
    def test_example(self, mgr):
        assert satcount(mgr, make(mgr), 3) == 5

    def test_terminals(self, mgr):
        mgr.declare(4)
        assert satcount(mgr, ONE, 4) == 16
        assert satcount(mgr, ZERO, 4) == 0

    def test_free_variables_counted(self, mgr):
        f = mgr.var(1)
        assert satcount(mgr, f, 3) == 4  # x0 and x2 free

    def test_default_num_vars(self, mgr):
        mgr.declare(3)
        assert satcount(mgr, mgr.var(0)) == 4

    def test_insufficient_num_vars_rejected(self, mgr):
        f = mgr.var(3)
        with pytest.raises(ValueError):
            satcount(mgr, f, 2)


class TestModels:
    def test_any_model(self, mgr):
        f = make(mgr)
        model = any_model(mgr, f, [0, 1, 2])
        assert model is not None
        assert mgr.evaluate(f, model)

    def test_any_model_zero(self, mgr):
        assert any_model(mgr, ZERO) is None

    def test_iter_models_complete(self, mgr):
        f = make(mgr)
        models = list(iter_models(mgr, f, [0, 1, 2]))
        assert len(models) == 5
        assert len({tuple(sorted(m.items())) for m in models}) == 5
        for model in models:
            assert mgr.evaluate(f, model)

    def test_iter_models_limit(self, mgr):
        f = make(mgr)
        assert len(list(iter_models(mgr, f, [0, 1, 2], limit=2))) == 2

    def test_iter_models_expands_free_vars(self, mgr):
        f = mgr.var(0)
        models = list(iter_models(mgr, f, [0, 1]))
        assert len(models) == 2
