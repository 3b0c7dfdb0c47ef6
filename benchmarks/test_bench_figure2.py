"""Figure 2 / §3.1: n concurrently marked conflict places.

The second source of state explosion — the one classical partial-order
methods do **not** cure and the paper's contribution does:

* full reachability: 3^n markings;
* PO-reduced ("anticipated") graph: still 2^(n+1) - 1 states (Fig. 2b);
* generalized partial order: 2 states for every n (§3.1's headline).
"""

import pytest

from repro.analysis import explore
from repro.gpo import analyze as gpo_analyze, explore_gpo
from repro.models import conflict_pairs_net
from repro.stubborn import explore_reduced

SIZES = [2, 4, 6, 8, 10]


class TestShape:
    @pytest.mark.parametrize("n", SIZES)
    def test_counts(self, n):
        if n <= 8:
            assert explore(conflict_pairs_net(n)).num_states == 3**n
        assert (
            explore_reduced(conflict_pairs_net(n)).num_states
            == 2 ** (n + 1) - 1
        )
        assert explore_gpo(conflict_pairs_net(n)).graph.num_states == 2

    def test_gpo_covers_all_outcomes(self):
        # The single successor state stands for all 2^n branch outcomes.
        n = 6
        result = gpo_analyze(conflict_pairs_net(n))
        assert result.extras["scenarios"] == 2**n


@pytest.mark.parametrize("n", [4, 6, 8])
def test_bench_full(benchmark, n):
    benchmark(lambda: explore(conflict_pairs_net(n)))


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_bench_reduced(benchmark, n):
    benchmark(lambda: explore_reduced(conflict_pairs_net(n)))


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_bench_gpo(benchmark, n):
    result = benchmark(lambda: explore_gpo(conflict_pairs_net(n)))
    assert result.graph.num_states == 2
