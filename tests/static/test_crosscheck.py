"""Cross-checks: structural verdicts against exhaustive exploration.

The certificate and the siphon pre-check are sound-but-incomplete; these
tests pin down the direction of that soundness on the actual benchmark
families rather than toy nets.
"""

import json

from repro.analysis import analyze
from repro.engine.events import JsonlEventSink
from repro.engine.jobs import Budget
from repro.harness import DEFAULT_SIZES, PROBLEMS, run_table1
from repro.models import asat, modem, nsdp, over, rw
from repro.net import check_safe
from repro.static import certify_safety, deadlock_freedom_precheck

SMALLEST = [nsdp(2), asat(2), over(2), rw(6)]


class TestCertificateAgreesWithReachability:
    def test_certified_families_are_exhaustively_safe(self):
        for net in SMALLEST:
            certificate = certify_safety(net)
            verdict = check_safe(net)
            assert verdict.status == "safe"
            # Soundness: a certificate may only exist for safe nets.
            assert certificate.certified

    def test_all_table1_instances_are_certified_structurally(self):
        # The acceptance bar: every Table 1 model is proven 1-safe with
        # zero states explored.
        for problem, sizes in DEFAULT_SIZES.items():
            for size in sizes:
                net = PROBLEMS[problem](size)
                certificate = certify_safety(net)
                assert certificate.certified, (
                    f"{problem}({size}): {certificate.explain(net)}"
                )
                assert not certificate.basis_capped


class TestPrecheckNeverContradictsDeadlockSearch:
    def test_one_directional_soundness(self):
        nets = SMALLEST + [modem(1, bug=True), modem(1, bug=False)]
        for net in nets:
            verdict = deadlock_freedom_precheck(net)
            assert verdict in ("deadlock-free", "unknown")
            if verdict == "deadlock-free":
                assert not analyze(net).deadlock, net.name


class TestJobEventsCarryCertification:
    def test_jsonl_stats_include_safety_certified(self, tmp_path):
        log = tmp_path / "events.jsonl"
        with open(log, "w", encoding="utf-8") as handle:
            run_table1(
                instances={("NSDP", 2): nsdp(2)},
                budget=Budget(max_states=5000),
                events=JsonlEventSink(handle),
            )
        certified = {}
        for line in log.read_text().splitlines():
            event = json.loads(line)
            if event.get("kind") != "finished":
                continue
            stats = event.get("stats") or {}
            certified[event["method"]] = stats.get("safety_certified")
        assert certified
        assert all(value is True for value in certified.values()), certified
