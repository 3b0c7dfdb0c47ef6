"""``time_seconds`` accounts for the whole ``analyze`` root span.

Every analyzer opens its stopwatch before the structural certificate and
keeps it running through witness extraction, so the reported time covers
the certificate span and nearly all of the root span.  Each analyzer gets
a small budget so the matrix stays quick; aborted runs are timed the
same way.
"""

import pytest

from repro.analysis import analyze as full_analyze
from repro.gpo import analyze as gpo_analyze
from repro.models import asat, nsdp, over, rw
from repro.obs import names
from repro.obs.tracer import Tracer, activate
from repro.search.parallel import analyze_parallel
from repro.stubborn import analyze as stubborn_analyze
from repro.symbolic import analyze as symbolic_analyze
from repro.timed import analyze as timed_analyze
from repro.timed.tpn import TimedPetriNet
from repro.unfolding import analyze as unfolding_analyze


def _timed(net):
    tpn = TimedPetriNet(net, [(0, None)] * net.num_transitions)
    return timed_analyze(tpn, max_classes=2_000)


ANALYZE_FNS = {
    "full": lambda net: full_analyze(net, max_states=5_000),
    "stubborn": lambda net: stubborn_analyze(net, max_states=5_000),
    "gpo": lambda net: gpo_analyze(net, max_states=5_000),
    "symbolic": lambda net: symbolic_analyze(net, max_seconds=2.0),
    "timed": _timed,
    "unfolding": lambda net: unfolding_analyze(net, max_events=500),
    "parallel": lambda net: analyze_parallel(
        net, workers="inline", max_states=5_000
    ),
}

NETS = {"NSDP(6)": (nsdp, 6), "ASAT(4)": (asat, 4), "OVER(4)": (over, 4), "RW(9)": (rw, 9)}

#: Below this root-span duration a few hundred microseconds of result
#: packaging outside the stopwatch could break the ratio by noise alone.
MIN_ROOT_NS = 5_000_000


@pytest.mark.parametrize("net_id", sorted(NETS))
@pytest.mark.parametrize("analyzer", sorted(ANALYZE_FNS))
def test_time_seconds_covers_certificate_and_root_span(analyzer, net_id):
    family, size = NETS[net_id]
    net = family(size)  # fresh net: the certificate is computed in the run
    tracer = Tracer()
    with activate(tracer):
        result = ANALYZE_FNS[analyzer](net)
    records = tracer.records()
    (root,) = [
        r
        for r in records
        if r["name"] == names.SPAN_ANALYZE and "parent_id" not in r
    ]
    (certificate,) = [
        r for r in records if r["name"] == names.SPAN_CERTIFICATE
    ]
    if root["dur_ns"] < MIN_ROOT_NS:
        pytest.skip(f"analyze span {root['dur_ns'] / 1e6:.2f} ms is too short")
    reported_ns = result.time_seconds * 1e9
    assert reported_ns >= certificate["dur_ns"]
    assert reported_ns >= 0.95 * root["dur_ns"]
