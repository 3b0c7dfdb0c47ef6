"""Ablation benchmarks for the design choices called out in DESIGN.md.

1. **Symbolic engine configuration** — partitioned transition relations +
   FORCE variable ordering (our default) vs a monolithic relation without
   ordering heuristics.  Finding (recorded in EXPERIMENTS.md): at the
   paper's instance sizes *neither* configuration of a modern ROBDD
   engine reproduces the 1998 SMV blow-up — the monolithic relation even
   shares frame-condition structure our per-transition relations repeat.
   The ablation pins the fixpoint equivalence and lets the timings speak.
2. **GPO family backend** — BDD-backed scenario families vs explicit
   frozensets.  Explicit families carry exponentially many scenarios per
   state; the BDD backend keeps them polynomial on the benchmarks.
"""

import pytest

from repro.gpo import analyze as gpo_analyze
from repro.models import conflict_pairs_net, nsdp, rw
from repro.symbolic import reach
from repro.unfolding import unfold


class TestShape:
    def test_monolithic_and_partitioned_same_fixpoint(self):
        net = nsdp(3)
        modern = reach(net, partitioned=True, use_force_order=True)
        naive = reach(net, partitioned=False, use_force_order=False)
        assert naive.num_states == modern.num_states
        assert naive.iterations == modern.iterations

    def test_force_order_helps(self):
        net = nsdp(4)
        with_force = reach(net, use_force_order=True)
        without = reach(net, use_force_order=False)
        assert with_force.peak_nodes <= without.peak_nodes

    def test_backends_same_answers(self):
        for make in (lambda: nsdp(3), lambda: rw(4)):
            net = make()
            explicit = gpo_analyze(net, backend="explicit")
            bdd = gpo_analyze(net, backend="bdd")
            assert explicit.states == bdd.states
            assert explicit.deadlock == bdd.deadlock

    def test_unfolding_prefix_linear_on_conflict_pairs(self):
        # Where PO-reduced graphs blow up (2^(n+1) - 1 states), the
        # complete prefix stays linear: 2n events — unfoldings and GPO
        # both sidestep the conflict-place explosion, by different means.
        for n in (2, 4, 8):
            prefix = unfold(conflict_pairs_net(n))
            assert prefix.num_events == 2 * n


@pytest.mark.parametrize("n", [4, 8])
def test_bench_unfolding_conflict_pairs(benchmark, n):
    result = benchmark(lambda: unfold(conflict_pairs_net(n)))
    assert result.num_events == 2 * n


@pytest.mark.parametrize("n", [2, 3])
def test_bench_unfolding_nsdp(benchmark, n):
    benchmark(lambda: unfold(nsdp(n)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bench_symbolic_modern(benchmark, n):
    benchmark(lambda: reach(nsdp(n), partitioned=True, use_force_order=True))


@pytest.mark.parametrize("n", [2, 3])
def test_bench_symbolic_naive(benchmark, n):
    benchmark(lambda: reach(nsdp(n), partitioned=False, use_force_order=False))


@pytest.mark.parametrize("backend", ["explicit", "bdd"])
def test_bench_gpo_backend_nsdp(benchmark, backend):
    benchmark(lambda: gpo_analyze(nsdp(4), backend=backend))


@pytest.mark.parametrize("backend", ["explicit", "bdd"])
def test_bench_gpo_backend_conflict_pairs(benchmark, backend):
    # 2^10 scenarios: the explicit backend pays linearly in scenarios,
    # the BDD backend logarithmically.
    benchmark(lambda: gpo_analyze(conflict_pairs_net(10), backend=backend))
