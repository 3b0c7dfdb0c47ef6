"""Memory pin: the explicit search stores its discovery tree, not edges.

A stored state costs its index entry, its place in the state list, one
parent index, one label reference and — while it waits on the frontier —
one enabled-transition mask.  The bounds are twice the per-state
``tracemalloc`` peak measured when the store became a discovery tree
(full NSDP(6): about 153 B per state, stubborn: about 162 B); the
edge-list store it replaced peaked at about 610 and 455 B.
"""

import tracemalloc

import pytest

import repro.analysis.reachability as full
import repro.stubborn.explorer as stubborn
from repro.models import nsdp

BYTES_PER_STATE = {"full": (full, 310), "stubborn": (stubborn, 325)}


@pytest.mark.parametrize("analyzer", sorted(BYTES_PER_STATE))
def test_peak_bytes_per_stored_state(analyzer):
    module, bound = BYTES_PER_STATE[analyzer]
    net = nsdp(6)
    # Warm the per-net caches (kernel, certificate, stubborn closure
    # memo) so the traced run allocates only what the search stores.
    module.analyze(net)
    # Another test may have left tracing on (memory-profiling tracers):
    # measure the peak above what is traced already.
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = module.analyze(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert result.exhaustive
    assert (peak - baseline) / result.states < bound
