"""Tests for the ``gpo`` command-line interface."""

import re

import pytest

from repro.harness.cli import main
from repro.models import choice_net, figure3_net
from repro.net import save_net, save_pnml
from repro.obs import names


@pytest.fixture
def net_file(tmp_path):
    path = str(tmp_path / "choice.net")
    save_net(choice_net(), path)
    return path


@pytest.fixture
def pnml_file(tmp_path):
    path = str(tmp_path / "fig3.pnml")
    save_pnml(figure3_net(), path)
    return path


def one_method(path, method="gpo", prop="deadlock"):
    """``gpo query`` deciding ``prop`` with one analyzer and nothing else."""
    return ["query", path, prop, "--methods", method, "--no-static",
            "--no-cache"]


class TestVerify:
    """One analyzer on one net: ``query --methods M --no-static``.  The
    exit code follows the property convention: 0 = a deadlock exists."""

    def test_deadlock_exit_code(self, net_file, capsys):
        assert main(one_method(net_file)) == 0
        out = capsys.readouterr().out
        assert "DEADLOCK" in out
        assert "deadlock at" in out

    @pytest.mark.parametrize("method", ["full", "stubborn", "symbolic", "gpo"])
    def test_all_methods(self, net_file, method, capsys):
        assert main(one_method(net_file, method)) == 0
        assert method in capsys.readouterr().out

    def test_pnml_autodetected(self, pnml_file, capsys):
        assert main(one_method(pnml_file)) == 0

    def test_explicit_backend(self, net_file, capsys):
        # GPO runs on BDD families only; the --backend flag is gone.
        with pytest.raises(SystemExit) as exc:
            main(["query", net_file, "deadlock", "--backend", "explicit"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_unfolding_method(self, net_file, capsys):
        assert main(one_method(net_file, "unfolding")) == 0
        assert "cutoffs" in capsys.readouterr().out

    def test_timed_verify(self, tmp_path, capsys):
        path = str(tmp_path / "race.net")
        with open(path, "w") as handle:
            handle.write(
                "place p marked\nplace q\nplace r\n"
                "trans good : p -> q @ [0,1]\n"
                "trans back : q -> p\n"
                "trans bad : p -> r @ [5,6]\n"
            )
        code = main(["query", path, "deadlock", "--methods", "timed"])
        assert code == 1  # 'bad' is preempted; the net cycles forever
        assert "timed" in capsys.readouterr().out
        # untimed skeleton reaches the dead place r
        assert main(one_method(path)) == 0

    def test_timed_mixed_with_untimed_methods_exits_two(self, tmp_path, capsys):
        path = str(tmp_path / "race.net")
        with open(path, "w") as handle:
            handle.write("place p marked\ntrans t : p -> p @ [1,2]\n")
        code = main(["query", path, "deadlock", "--methods", "timed,gpo"])
        assert code == 2
        assert "timed" in capsys.readouterr().err

    def test_timed_with_reduce_exits_two(self, tmp_path, capsys):
        path = str(tmp_path / "race.net")
        with open(path, "w") as handle:
            handle.write("place p marked\ntrans t : p -> p @ [1,2]\n")
        code = main(
            ["query", path, "deadlock", "--methods", "timed", "--reduce"]
        )
        assert code == 2
        assert "without reduction" in capsys.readouterr().err


class TestSafety:
    """Bad-marking questions through ``gpo query`` (exit 0 holds /
    1 violated / 2 undecided or refused)."""

    @pytest.fixture
    def rw_file(self, tmp_path):
        from repro.models import rw

        path = str(tmp_path / "rw3.net")
        save_net(rw(3), path)
        return path

    def test_safe_property(self, rw_file, capsys):
        code = main(["query", rw_file, "invariant(!(writing0 & writing1))"])
        assert code == 0
        assert "property holds" in capsys.readouterr().out

    def test_unsafe_property_exit_code(self, rw_file, capsys):
        code = main(["query", rw_file, "invariant(!(reading0 & reading1))"])
        assert code == 1
        assert "property violated" in capsys.readouterr().out

    def test_negated_places(self, rw_file, capsys):
        code = main(
            ["query", rw_file, "invariant(!(writing0 & !controller))"]
        )
        assert code == 0  # controller is always marked

    def test_unknown_place_rejected(self, rw_file, capsys):
        assert main(["query", rw_file, "invariant(!ghost)"]) == 2

    def test_empty_conjunct_rejected(self, rw_file, capsys):
        assert main(["query", rw_file, "invariant(!(a & & b))"]) == 2

    def test_no_screen_mode(self, rw_file, capsys):
        code = main(
            [
                "query",
                rw_file,
                "invariant(!(reading0 & reading1))",
                "--methods",
                "symbolic",
            ]
        )
        assert code == 1
        assert "symbolic: property violated" in capsys.readouterr().out


class TestTable1:
    def test_selected_problem(self, capsys):
        code = main(
            ["table1", "--problems", "OVER", "--max-states", "2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OVER(2)" in out and "OVER(5)" in out

    def test_unknown_problem(self, capsys):
        assert main(["table1", "--problems", "NOPE"]) == 2


class TestFigures:
    def test_figure2(self, capsys):
        assert main(["figures", "--figure", "2"]) == 0
        assert "conflict pairs" in capsys.readouterr().out

    def test_figure3(self, capsys):
        assert main(["figures", "--figure", "3"]) == 0
        assert "fire {A,B}" in capsys.readouterr().out


class TestCheckAndDot:
    def test_check_ok(self, net_file, capsys):
        assert main(["check", net_file]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "1-safe" in out

    def test_check_unsafe(self, tmp_path, capsys):
        path = str(tmp_path / "unsafe.net")
        with open(path, "w") as handle:
            handle.write(
                "place p marked\nplace q marked\ntrans t : p -> q\n"
            )
        assert main(["check", path]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_dot_net(self, net_file, capsys):
        assert main(["dot", net_file]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_dot_rg(self, net_file, capsys):
        assert main(["dot", net_file, "--rg"]) == 0
        assert "doublecircle" in capsys.readouterr().out


class TestLint:
    @pytest.fixture
    def broken_file(self, tmp_path):
        # 'dead' is an unmarked source place, so 'stuck' can never fire.
        path = str(tmp_path / "broken.net")
        with open(path, "w") as handle:
            handle.write(
                "place p marked\nplace dead\n"
                "trans t : p -> p\ntrans stuck : dead -> p\n"
            )
        return path

    def test_clean_net_exits_zero(self, net_file, capsys):
        assert main(["lint", net_file]) == 0
        out = capsys.readouterr().out
        assert "verdict: ok" in out
        assert "structurally 1-safe" in out

    def test_broken_net_exits_one(self, broken_file, capsys):
        assert main(["lint", broken_file]) == 1
        assert "verdict: BROKEN" in capsys.readouterr().out

    def test_json_output_is_parseable(self, net_file, capsys):
        import json

        assert main(["lint", net_file, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["broken"] is False
        assert report["safety"]["certified"] is True
        assert report["net_class"] == "state-machine"

    def test_bench_model_lint_prepass(self, capsys):
        assert main(
            ["table1", "--problems", "RW:2", "--lint", "--no-cache"]
        ) == 0
        captured = capsys.readouterr()
        assert "[lint] rw_2: ok" in captured.err
        assert "RW(2)" in captured.out


class TestBenchModel:
    """One Table 1 instance: ``table1 --problems NAME:SIZE``."""

    def test_runs(self, capsys):
        assert main(["table1", "--problems", "RW:2"]) == 0
        out = capsys.readouterr().out
        assert "RW(2)" in out
        assert "RW(3)" not in out

    def test_unknown_model(self, capsys):
        assert main(["table1", "--problems", "XX:2"]) == 2

    def test_bad_size_exits_two(self, capsys):
        assert main(["table1", "--problems", "RW:two"]) == 2
        assert "NAME:SIZE" in capsys.readouterr().err

    def test_size_the_model_refuses_exits_two(self, capsys):
        # RW needs two processes; the constructor's ValueError becomes a
        # usage error before any worker forks, not a traceback.
        assert main(["table1", "--problems", "RW:0", "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert "bad instance RW:0: need at least 2 processes" in captured.err
        assert captured.out == ""

    def test_mixed_selection(self, capsys):
        code = main(
            ["table1", "--problems", "OVER,RW:2", "--max-states", "2000",
             "--no-cache"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OVER(2)" in out and "OVER(5)" in out
        assert "RW(2)" in out and "RW(3)" not in out


class TestRace:
    """The portfolio race: ``query F P --no-static``.  The exit code
    follows the property convention: 0 = a deadlock exists."""

    def test_deadlock_net_exits_one(self, net_file, capsys):
        code = main(
            ["query", net_file, "deadlock", "--no-static", "--jobs", "1",
             "--no-cache"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DEADLOCK" in out

    def test_deadlock_free_net_exits_zero(self, tmp_path, capsys):
        from repro.models import rw

        path = str(tmp_path / "rw.net")
        save_net(rw(2), path)
        code = main(
            ["query", path, "deadlock", "--no-static", "--jobs", "1",
             "--no-cache"]
        )
        assert code == 1
        assert "deadlock-free" in capsys.readouterr().out

    def test_inconclusive_exits_two(self, tmp_path, capsys):
        from repro.models import nsdp

        path = str(tmp_path / "nsdp.net")
        save_net(nsdp(6), path)
        code = main(
            [
                "query",
                path,
                "deadlock",
                "--no-static",
                "--jobs",
                "1",
                "--no-cache",
                "--methods",
                "stubborn",
                "--max-states",
                "5",
            ]
        )
        assert code == 2
        assert "no deadlock found (bounded)" in capsys.readouterr().out

    def test_unknown_method_rejected(self, net_file, capsys):
        assert main(
            ["query", net_file, "deadlock", "--methods", "quantum"]
        ) == 2

    def test_cache_warm_rerun(self, net_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["query", net_file, "deadlock", "--no-static", "--jobs", "1",
                "--cache-dir", cache_dir]
        assert main(args) == 0
        assert main(args) == 0
        assert "cache=hit" in capsys.readouterr().out


class TestTable1Engine:
    @staticmethod
    def _state_columns(out):
        """Row shapes minus the timing columns, which naturally vary."""
        rows = {}
        for line in out.splitlines():
            match = re.match(r"\s*(RW\(\d+\))\s", line)
            if match:
                cells = line.split()
                rows[match.group(1)] = [
                    c for c in cells[1:] if "." not in c
                ]
        return rows

    def test_jobs_flag_matches_sequential_output(self, capsys):
        seq = main(
            ["table1", "--problems", "RW", "--max-states", "2000",
             "--no-cache"]
        )
        seq_out = capsys.readouterr().out
        par = main(
            ["table1", "--problems", "RW", "--max-states", "2000",
             "--no-cache", "--jobs", "4"]
        )
        par_out = capsys.readouterr().out
        assert seq == par == 0
        seq_rows = self._state_columns(seq_out)
        assert seq_rows  # the table printed at least one RW row
        assert seq_rows == self._state_columns(par_out)

    def test_portfolio_mode(self, capsys):
        code = main(
            ["table1", "--problems", "RW", "--max-states", "2000",
             "--no-cache", "--portfolio", "--jobs", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "race on rw_6" in out
        assert "deadlock-free" in out


class TestProfile:
    def test_span_tree_and_artifacts(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        metrics = str(tmp_path / "metrics.prom")
        code = main(
            [
                "profile",
                "nsdp",
                "4",
                "--analyzer",
                "gpo",
                "--trace-out",
                trace,
                "--metrics-out",
                metrics,
            ]
        )
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "analyze" in out
        assert "hot spans" in out
        assert "metrics:" in out
        import json as _json

        with open(trace, encoding="utf-8") as handle:
            payload = _json.load(handle)
        assert payload["traceEvents"]
        with open(metrics, encoding="utf-8") as handle:
            text = handle.read()
        assert "# TYPE states_expanded counter" in text

    def test_family_is_case_insensitive(self, capsys):
        assert main(["profile", "NSDP", "2"]) in (0, 1)

    def test_timed_analyzer_uses_untimed_skeleton(self, capsys):
        code = main(["profile", "nsdp", "2", "--analyzer", "timed"])
        assert code in (0, 1)
        assert "timed" in capsys.readouterr().out

    def test_unknown_family_exits_two(self, capsys):
        assert main(["profile", "nope", "2"]) == 2

    def test_size_the_model_refuses_exits_two(self, capsys):
        assert main(["profile", "NSDP", "1"]) == 2
        captured = capsys.readouterr()
        assert "bad instance NSDP:1: need at least 2 philosophers" in captured.err
        assert captured.out == ""

    def test_memory_flag_attributes_kb(self, capsys):
        code = main(["profile", "nsdp", "2", "--memory"])
        assert code in (0, 1)

    def test_memory_flag_stops_the_tracing_it_started(self, capsys):
        import tracemalloc

        was_tracing = tracemalloc.is_tracing()
        tracemalloc.stop()
        try:
            assert main(["profile", "rw", "2", "--memory"]) == 0
            assert not tracemalloc.is_tracing()
        finally:
            if was_tracing:
                tracemalloc.start()

    def test_memory_flag_leaves_the_callers_tracing_on(self, capsys):
        import tracemalloc

        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            assert main(["profile", "rw", "2", "--memory"]) == 0
            assert tracemalloc.is_tracing()
        finally:
            if not was_tracing:
                tracemalloc.stop()


class TestObsFlags:
    def test_check_trace_and_metrics(self, net_file, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        metrics = str(tmp_path / "m.prom")
        code = main(
            ["check", net_file, "--trace", trace, "--metrics", metrics]
        )
        assert code in (0, 1, 2)
        import json as _json

        with open(trace, encoding="utf-8") as handle:
            payload = _json.load(handle)
        # check always traces its structural phases, so the trace is
        # never empty even on the certificate fast path.
        spans = {e["name"] for e in payload["traceEvents"]}
        assert names.SPAN_DIAGNOSE in spans
        assert names.SPAN_CERTIFICATE in spans

    def test_table1_trace_flag(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        code = main(
            [
                "table1",
                "--problems",
                "NSDP",
                "--max-states",
                "2000",
                "--no-cache",
                "--jobs",
                "1",
                "--trace",
                trace,
            ]
        )
        assert code == 0
        import json as _json

        with open(trace, encoding="utf-8") as handle:
            payload = _json.load(handle)
        assert isinstance(payload["traceEvents"], list)


class TestQuery:
    """``gpo query`` and the --property flags thread one language through."""

    @pytest.fixture
    def nsdp_file(self, tmp_path):
        from repro.models import nsdp

        path = str(tmp_path / "nsdp3.net")
        save_net(nsdp(3), path)
        return path

    def test_deadlock_holds(self, nsdp_file, capsys):
        # query speaks the property convention: 0 == "the property holds",
        # even when the property is the deadlock question itself.
        assert main(["query", nsdp_file, "deadlock"]) == 0
        assert "property: deadlock" in capsys.readouterr().out

    def test_negated_deadlock_is_violated(self, nsdp_file, capsys):
        assert main(["query", nsdp_file, "!deadlock"]) == 1

    def test_mutex_reachability_refuted(self, nsdp_file, capsys):
        assert main(["query", nsdp_file, "reachable(eat0 & eat1)"]) == 1
        assert "property: reachable(eat0 & eat1)" in capsys.readouterr().out

    def test_mutex_invariant_holds(self, nsdp_file, capsys):
        assert main(["query", nsdp_file, "invariant(!(eat0 & eat1))"]) == 0

    def test_safe_sugar(self, nsdp_file, capsys):
        assert main(["query", nsdp_file, "safe"]) == 0

    def test_parse_error_exits_two(self, nsdp_file, capsys):
        assert main(["query", nsdp_file, "reachable("]) == 2
        assert capsys.readouterr().err

    def test_unknown_place_exits_two(self, nsdp_file, capsys):
        assert main(["query", nsdp_file, "reachable(nope)"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_bad_method_exits_two(self, nsdp_file, capsys):
        assert main(
            ["query", nsdp_file, "deadlock", "--methods", "psychic"]
        ) == 2

    def test_verify_property_flag(self, nsdp_file, capsys):
        # gpo (the default) only screens reachability; full decides it.
        code = main(one_method(nsdp_file, "full", "reachable(eat0)"))
        assert code == 0  # reachable(eat0) holds -> exit 0
        assert "property" in capsys.readouterr().out

    def test_verify_property_gpo_screen_is_undecided(self, nsdp_file):
        # A clean GPO screen is inconclusive, not a verdict.
        code = main(one_method(nsdp_file, "gpo", "reachable(eat0)"))
        assert code == 2

    def test_verify_property_incompatible_method(self, nsdp_file, capsys):
        code = main(one_method(nsdp_file, "stubborn", "reachable(eat0)"))
        assert code == 2
        # The compat filter reports the refusal with the verdict.
        assert "deadlock" in capsys.readouterr().out

    def test_race_property_flag(self, nsdp_file, capsys):
        code = main(
            [
                "query",
                nsdp_file,
                "reachable(eat0)",
                "--no-static",
                "--methods",
                "full,symbolic",
            ]
        )
        assert code == 0

    def test_reach_stubborn_refuses(self, nsdp_file, capsys):
        code = main(
            [
                "query",
                nsdp_file,
                "reachable(eat0)",
                "--methods",
                "stubborn",
            ]
        )
        assert code == 2
        assert "deadlocks only" in capsys.readouterr().out
