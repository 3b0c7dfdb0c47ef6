"""Differential tests: the bitmask marking kernel vs the reference rules.

The :class:`~repro.net.kernel.MarkingKernel` is observationally equivalent
to the frozenset implementation in :mod:`repro.net.petrinet` — same
enabled sets, same successors, same deadlock verdicts, same exceptions
with the same messages.  These tests hold it to that over random nets
(including unsafe ones, where the *errors* must match) and check the
incremental enabled-set maintenance against the full scan.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.models import random_net, random_state_machine_product
from repro.net import NetBuilder, NotEnabledError, UnsafeNetError
from repro.net.kernel import MarkingKernel, iter_bits

from tests.conftest import safe_nets, state_machine_nets
from tests.oracle import (
    discovery_tree,
    oracle_check_safe,
    oracle_explore,
    oracle_explore_reduced,
)

COMMON = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_choice():
    builder = NetBuilder("choice")
    builder.place("p0", marked=True)
    builder.place("p1")
    builder.place("p2")
    builder.transition("a", inputs=["p0"], outputs=["p1"])
    builder.transition("b", inputs=["p0"], outputs=["p2"])
    return builder.build()


class TestPacking:
    def test_iter_bits_ascending(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b1011)) == [0, 1, 3]

    def test_encode_decode_roundtrip(self):
        net = build_choice()
        kernel = net.kernel()
        marking = frozenset({0, 2})
        assert kernel.decode(kernel.encode(marking)) == marking
        assert kernel.initial == kernel.encode(net.initial_marking)

    def test_kernel_is_cached_on_the_net(self):
        net = build_choice()
        assert net.kernel() is net.kernel()

    def test_masks(self):
        net = build_choice()
        kernel = net.kernel()
        assert kernel.pre_mask[0] == 0b001
        assert kernel.post_mask[0] == 0b010
        assert kernel.clear_mask[0] == ~0b001

    def test_repr(self):
        assert "choice" in repr(build_choice().kernel())


class TestFixedNetEquivalence:
    def test_fire_not_enabled_matches_reference(self):
        net = build_choice()
        kernel = net.kernel()
        bits = kernel.encode(frozenset({1}))
        with pytest.raises(NotEnabledError) as kernel_err:
            kernel.fire(0, bits)
        with pytest.raises(NotEnabledError) as reference_err:
            net.fire(0, frozenset({1}))
        assert str(kernel_err.value) == str(reference_err.value)

    def test_unsafe_firing_matches_reference(self):
        builder = NetBuilder("unsafe")
        builder.place("p", marked=True)
        builder.place("q", marked=True)
        builder.transition("t", inputs=["p"], outputs=["q"])
        net = builder.build()
        kernel = net.kernel()
        with pytest.raises(UnsafeNetError) as kernel_err:
            kernel.fire(0, kernel.initial)
        with pytest.raises(UnsafeNetError) as reference_err:
            net.fire(0, net.initial_marking)
        assert str(kernel_err.value) == str(reference_err.value)


def _walk_markings(net, rng, steps=40):
    """A random walk's markings (reference rules), initial included."""
    marking = net.initial_marking
    seen = [marking]
    for _ in range(steps):
        enabled = net.enabled_transitions(marking)
        if not enabled:
            break
        marking = net.fire(rng.choice(enabled), marking)
        seen.append(marking)
    return seen


class TestDifferential:
    @given(net=state_machine_nets(), seed=st.integers(0, 2**32 - 1))
    @settings(**COMMON)
    def test_successors_match_on_walks(self, net, seed):
        kernel = net.kernel()
        rng = random.Random(seed)
        for marking in _walk_markings(net, rng):
            bits = kernel.encode(marking)
            assert kernel.enabled_transitions(bits) == (
                net.enabled_transitions(marking)
            )
            reference = net.successors(marking)
            packed = kernel.successors(bits)
            assert [t for t, _ in packed] == [t for t, _ in reference]
            assert [kernel.decode(b) for _, b in packed] == [
                m for _, m in reference
            ]
            assert kernel.is_deadlocked(bits) == net.is_deadlocked(marking)

    @given(net=safe_nets(), seed=st.integers(0, 2**32 - 1))
    @settings(**COMMON)
    def test_errors_match_on_random_nets(self, net, seed):
        """On possibly-unsafe nets both paths raise the same error."""
        kernel = net.kernel()
        rng = random.Random(seed)
        marking = net.initial_marking
        for _ in range(40):
            enabled = net.enabled_transitions(marking)
            bits = kernel.encode(marking)
            assert kernel.enabled_transitions(bits) == enabled
            if not enabled:
                break
            t = rng.choice(enabled)
            try:
                expected = net.fire(t, marking)
            except UnsafeNetError as reference_err:
                with pytest.raises(UnsafeNetError) as kernel_err:
                    kernel.fire(t, bits)
                assert str(kernel_err.value) == str(reference_err)
                with pytest.raises(UnsafeNetError):
                    kernel.fire_enabled(t, bits)
                with pytest.raises(UnsafeNetError):
                    kernel.successors(bits)
                break
            assert kernel.decode(kernel.fire(t, bits)) == expected
            assert kernel.fire_enabled(t, bits) == kernel.fire(t, bits)
            marking = expected

    @given(net=state_machine_nets(), seed=st.integers(0, 2**32 - 1))
    @settings(**COMMON)
    def test_incremental_enabling_matches_full_scan(self, net, seed):
        kernel = net.kernel()
        rng = random.Random(seed)
        bits = kernel.initial
        enabled = kernel.enabled_mask(bits)
        for _ in range(40):
            candidates = list(iter_bits(enabled))
            if not candidates:
                break
            fired = rng.choice(candidates)
            successor = kernel.fire_enabled(fired, bits)
            enabled = kernel.update_enabled_mask(enabled, fired, successor)
            assert enabled == kernel.enabled_mask(successor)
            bits = successor

    def test_affected_covers_presets_touching_fired(self):
        rng = random.Random(7)
        net = random_state_machine_product(rng)
        kernel = net.kernel()
        for t in range(net.num_transitions):
            touched = kernel.pre_mask[t] | kernel.post_mask[t]
            expected = tuple(
                u
                for u in range(net.num_transitions)
                if kernel.pre_mask[u] & touched
            )
            assert kernel.affected[t] == expected


class TestIndexTables:
    def test_index_tables_are_sorted_views(self):
        rng = random.Random(11)
        net = random_net(rng)
        kernel = net.kernel()
        for t in range(net.num_transitions):
            assert kernel.pre_index[t] == tuple(sorted(net.pre_places[t]))
            assert kernel.post_index[t] == tuple(sorted(net.post_places[t]))
            assert kernel.pre_not_post_index[t] == tuple(
                sorted(net.pre_places[t] - net.post_places[t])
            )
            assert kernel.post_not_pre_index[t] == tuple(
                sorted(net.post_places[t] - net.pre_places[t])
            )
        for p in range(net.num_places):
            assert kernel.consumers[p] == tuple(
                sorted(net.post_transitions[p])
            )
            assert kernel.producers[p] == tuple(
                sorted(net.pre_transitions[p])
            )

    def test_pickled_net_rebuilds_kernel(self):
        import pickle

        net = build_choice()
        first = net.kernel()
        clone = pickle.loads(pickle.dumps(net))
        rebuilt = clone.kernel()
        assert rebuilt is not first
        assert rebuilt.pre_mask == first.pre_mask
        assert rebuilt.initial == first.initial


class TestAnalyzerEquivalence:
    """Graph-level equivalence of the kernel explorers and the oracle."""

    @given(net=state_machine_nets())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_full_analysis_is_byte_identical(self, net):
        import repro.analysis.reachability as full

        reference = oracle_explore(net, max_states=3000)
        kernelized = full.explore(net, max_states=3000)
        assert list(reference.states()) == list(kernelized.states())
        assert discovery_tree(reference) == discovery_tree(kernelized)
        assert reference.num_edges == kernelized.num_edges
        assert reference.deadlocks == kernelized.deadlocks

    @given(net=state_machine_nets())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_stubborn_analysis_is_byte_identical(self, net):
        import repro.stubborn.explorer as stubborn

        reference = oracle_explore_reduced(net, max_states=3000)
        kernelized = stubborn.explore_reduced(net, max_states=3000)
        assert list(reference.states()) == list(kernelized.states())
        assert discovery_tree(reference) == discovery_tree(kernelized)
        assert reference.num_edges == kernelized.num_edges
        assert reference.deadlocks == kernelized.deadlocks

    @given(net=state_machine_nets())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_check_safe_matches_reference(self, net):
        from repro.net.validation import check_safe

        reference = oracle_check_safe(net)
        kernelized = check_safe(net)
        assert reference.status == kernelized.status
        assert reference.states == kernelized.states
        assert reference.violation == kernelized.violation

    @given(net=safe_nets())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_check_safe_violation_matches_reference(self, net):
        """On possibly-unsafe nets the violation and its count agree."""
        from repro.net.validation import check_safe

        reference = oracle_check_safe(net, max_states=2000)
        kernelized = check_safe(net, max_states=2000)
        assert reference == kernelized

    def test_deadlock_witness_matches_reference(self):
        import repro.analysis.reachability as full
        from repro.models import nsdp
        from repro.search.witness import extract_witness

        net = nsdp(3)
        reference = extract_witness(net, oracle_explore(net))
        kernelized = full.analyze(net)
        assert str(reference) == str(kernelized.witness)


class TestClosureMemo:
    """The validated replay memo must be invisible except in speed."""

    def test_memo_hits_replay_identical_closures(self):
        from collections import deque

        from repro.models import nsdp

        net = nsdp(5)
        warm = net.kernel()
        cold_net = nsdp(5)
        # Walk every reachable marking twice on the memoized kernel; the
        # second pass is all hits and must reproduce the closures a
        # fresh (cold) kernel computes from scratch.
        frontier = deque([warm.initial])
        seen = {warm.initial}
        states = []
        while frontier:
            bits = frontier.popleft()
            states.append(bits)
            for _, succ in warm.successors(bits):
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        for _ in range(2):
            cold = type(warm)(cold_net)
            for bits in states:
                mask = warm.enabled_mask(bits)
                todo = mask
                while todo:
                    seed = todo & -todo
                    a = warm.stubborn_closure(bits, seed, mask)
                    b = cold.stubborn_closure(bits, seed, mask)
                    assert a == b
                    todo &= ~seed
        assert warm.stat_closure_memo_hits > 0

    def test_iteration_counter_is_cache_blind(self):
        import repro.stubborn.explorer as stubborn
        from repro.models import nsdp
        from repro.obs import names

        net = nsdp(4)
        first = stubborn.analyze(net)
        second = stubborn.analyze(net)
        key = names.STUBBORN_CLOSURE_ITERATIONS
        assert first.extras[key] == second.extras[key]
        assert first.states == second.states
        assert first.edges == second.edges

    def test_memo_cap_stops_insertions(self):
        import repro.net.kernel as kernel_mod
        from repro.models import nsdp

        net = nsdp(4)
        k = net.kernel()
        original = kernel_mod.CLOSURE_MEMO_CAP
        kernel_mod.CLOSURE_MEMO_CAP = 0
        try:
            # Drive every seed of every reachable state through the
            # closure so the dynamic (memoizable) branch is exercised.
            frontier = [k.initial]
            seen = {k.initial}
            while frontier:
                bits = frontier.pop()
                mask = k.enabled_mask(bits)
                todo = mask
                while todo:
                    seed = todo & -todo
                    k.stubborn_closure(bits, seed, mask)
                    todo ^= seed
                for _, succ in k.successors(bits):
                    if succ not in seen:
                        seen.add(succ)
                        frontier.append(succ)
            assert len(k._closure_memo) == 0
        finally:
            kernel_mod.CLOSURE_MEMO_CAP = original
