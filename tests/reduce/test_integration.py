"""End-to-end wiring: cache keys, engine extras, table1, lint, CLI."""

from __future__ import annotations

import json

import pytest

from repro.engine.jobs import Budget, VerificationJob, execute_job
from repro.engine.portfolio import run_race
from repro.harness.cli import main
from repro.harness.table1 import format_table1, run_table1
from repro.models import nsdp, rw
from repro.net.parser import to_text
from repro.props.decide import decide
from repro.reduce import replay
from repro.static.lint import lint


@pytest.fixture
def nsdp_file(tmp_path):
    path = tmp_path / "nsdp3.net"
    path.write_text(to_text(nsdp(3)), encoding="utf-8")
    return str(path)


class TestCacheKeys:
    def test_off_keys_stay_v2_byte_identical(self):
        net = nsdp(3)
        legacy = VerificationJob(net=net, method="full")
        explicit = VerificationJob(net=net, method="full", reduce="off")
        assert legacy.cache_key_material() == explicit.cache_key_material()
        assert legacy.cache_key_material().startswith("v2\n")

    def test_reduced_keys_are_v3_and_stamp_trace(self):
        net = nsdp(3)
        job = VerificationJob(net=net, method="full", reduce="auto")
        material = job.cache_key_material()
        assert material.startswith("v3\n")
        assert "reduce=auto" in material
        reduction = job.reduction()
        assert f"reduced={reduction.net.canonical_hash()}" in material
        assert f"trace={reduction.trace.trace_hash()}" in material

    def test_modes_never_share_entries(self):
        net = nsdp(3)
        auto = VerificationJob(net=net, method="full", reduce="auto")
        aggressive = VerificationJob(
            net=net, method="full", reduce="aggressive"
        )
        assert (
            auto.cache_key_material() != aggressive.cache_key_material()
        )


class TestEngineExecution:
    def test_unknown_reduce_mode_rejected(self):
        with pytest.raises(ValueError, match="reduce mode"):
            execute_job(VerificationJob(net=nsdp(2), reduce="sideways"))

    def test_result_carries_reduction_provenance(self):
        result = execute_job(
            VerificationJob(net=nsdp(3), method="full", reduce="auto")
        )
        payload = result.reduction
        assert payload is not None
        assert payload["level"] == "deadlock"
        assert payload["mode"] == "auto"
        assert payload["pre"] >= payload["post"]
        assert payload["trace"]["steps"]
        # The extras payload must survive the cache's JSON round trip.
        assert json.loads(json.dumps(result.extras))

    def test_describe_summarizes_not_dumps_the_trace(self):
        result = execute_job(
            VerificationJob(net=nsdp(3), method="full", reduce="auto")
        )
        line = result.describe()
        assert "reduce=" in line
        assert "steps" not in line

    def test_race_with_reduction_still_concludes(self):
        outcome = run_race(
            nsdp(3),
            methods=("full",),
            budget=Budget(max_states=50_000, max_seconds=60.0),
            jobs=1,
            reduce="auto",
        )
        assert outcome.conclusive
        assert outcome.winner.result.deadlock

    def test_decide_threads_reduce_through_races(self):
        decision = decide(
            nsdp(3), "deadlock", reduce="auto", use_static=False
        )
        assert decision.holds is True
        assert decision.result.reduction is not None


class TestTable1:
    def test_verdict_column_identical_with_and_without_reduce(self):
        budget = Budget(max_states=50_000, max_seconds=60.0)
        instances = {("NSDP", 3): nsdp(3), ("RW", 4): rw(4)}
        base = run_table1(instances=instances, budget=budget)
        shrunk = run_table1(instances=instances, budget=budget, reduce="auto")
        for row_a, row_b in zip(base, shrunk):
            assert row_a.problem == row_b.problem
            assert row_a.deadlock == row_b.deadlock

    def test_stats_row_reports_net_sizes(self):
        budget = Budget(max_states=50_000, max_seconds=60.0)
        rows = run_table1(
            instances={("RW", 4): rw(4)}, budget=budget, reduce="auto"
        )
        cell = rows[0].net_size_cell()
        assert "->" in cell
        table = format_table1(rows, with_paper=False, with_stats=True)
        assert "net P/T/A" in table
        assert cell in table

    def test_unreduced_stats_cell_is_placeholder(self):
        budget = Budget(max_states=50_000, max_seconds=60.0)
        rows = run_table1(instances={("RW", 4): rw(4)}, budget=budget)
        assert rows[0].net_size_cell() == "-"


class TestLintFolding:
    def test_report_carries_reduction_findings(self):
        report = lint(rw(4), reduce=True)
        assert report.reduction is not None
        assert report.reduction["findings"]
        assert not report.broken  # advisory only
        assert report.to_json()["reduction"]["rules"]

    def test_sarif_includes_reduce_rules_as_notes(self):
        report = lint(rw(4), reduce=True)
        sarif = report.to_sarif()
        assert sarif["version"] == "2.1.0"
        results = sarif["runs"][0]["results"]
        reduce_results = [
            r for r in results if r["ruleId"].startswith("reduce/")
        ]
        assert reduce_results
        assert all(r["level"] == "note" for r in reduce_results)
        rule_ids = {
            rule["id"] for rule in sarif["runs"][0]["tool"]["driver"]["rules"]
        }
        assert {r["ruleId"] for r in results} <= rule_ids

    def test_default_lint_skips_reduction(self):
        assert lint(rw(4)).reduction is None


class TestCli:
    def test_reduce_explain(self, nsdp_file, capsys):
        assert main(["reduce", nsdp_file, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "fuse-series" in out

    def test_reduce_emits_parseable_net(self, nsdp_file, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert (
            main(["reduce", nsdp_file, "--trace-out", str(trace_path)]) == 0
        )
        from repro.net.parser import parse_net
        from repro.reduce import ReductionTrace

        shrunk = parse_net(capsys.readouterr().out)
        assert shrunk.num_places < nsdp(3).num_places
        trace = ReductionTrace.from_json(
            json.loads(trace_path.read_text(encoding="utf-8"))
        )
        assert trace.steps

    def test_reduce_unknown_protect_place(self, nsdp_file, capsys):
        assert main(["reduce", nsdp_file, "--protect", "nope"]) == 2

    def test_lint_sarif_output_parses(self, nsdp_file, capsys):
        assert main(["lint", nsdp_file, "--format", "sarif"]) == 0
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["runs"][0]["tool"]["driver"]["name"] == "gpo-lint"

    def test_verify_like_race_with_reduce_flag(self, nsdp_file, capsys):
        code = main(
            ["query", nsdp_file, "deadlock", "--no-static", "--jobs", "1",
             "--no-cache", "--reduce"]
        )
        assert code == 0  # deadlock found (the property holds)
        assert "DEADLOCK" in capsys.readouterr().out

    def test_reach_maps_trace_back(self, tmp_path, capsys):
        path = tmp_path / "rw4.net"
        path.write_text(to_text(rw(4)), encoding="utf-8")
        code = main(
            [
                "query",
                str(path),
                "reachable(reading0 & reading1)",
                "--methods",
                "full",
                "--reduce",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "property holds" in out
        witness = next(line for line in out.splitlines() if " via " in line)
        assert witness.startswith(
            "goal at {controller, free2, free3, reading0, reading1} via "
        )
        # The mapped-back trace replays on the original net.
        trace = witness.split(" via ", 1)[1].split(" ; ")
        marking = replay(rw(4), trace)
        assert {"reading0", "reading1"} <= rw(4).marking_names(marking)
