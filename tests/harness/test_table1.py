"""Tests for the Table 1 harness (small instances only — the full table is
exercised by the benchmark suite)."""

from repro.engine.jobs import Budget
from repro.harness import (
    DEFAULT_SIZES,
    PAPER_TABLE1,
    PROBLEMS,
    format_table1,
    run_table1,
)


def run_instance(problem, size, **kwargs):
    """The one Table 1 row of ``problem(size)`` (``--problems NAME:SIZE``)."""
    (row,) = run_table1(problems=[problem], sizes={problem: [size]}, **kwargs)
    return row


class TestStaticData:
    def test_problems_cover_paper(self):
        assert set(PROBLEMS) == {"NSDP", "ASAT", "OVER", "RW"}

    def test_paper_rows_cover_all_instances(self):
        for problem, sizes in DEFAULT_SIZES.items():
            for size in sizes:
                assert (problem, size) in PAPER_TABLE1

    def test_paper_constants_sane(self):
        full, spin, _, smv, _, gpo, _ = PAPER_TABLE1[("NSDP", 2)]
        assert (full, spin, smv, gpo) == (18, 12, 1068, 3)


class TestRunInstance:
    def test_nsdp2_row(self):
        row = run_instance("NSDP", 2)
        assert row.deadlock
        assert row.full_states == 17
        assert row.gpo_states == 2
        assert row.spin_states is not None and row.spin_states <= 17
        assert row.smv_peak is not None and row.smv_peak > 0

    def test_rw_reduction_degenerate(self):
        row = run_instance("RW", 2)
        assert row.spin_states == row.full_states
        assert not row.deadlock

    def test_budget_marks_missing(self):
        row = run_instance(
            "NSDP", 4, budget=Budget(max_states=5, max_seconds=None)
        )
        assert row.full_states is None
        assert row.spin_states is None

    def test_analyzer_selection(self):
        row = run_instance("OVER", 2, analyzers=("gpo",))
        assert row.full_states is None
        assert row.gpo_states == 2


class TestFormatting:
    def test_table_renders_both_sections(self):
        rows = run_table1(
            problems=["OVER"],
            sizes={"OVER": [2]},
            analyzers=("gpo", "full"),
        )
        text = format_table1(rows)
        assert "OVER(2)" in text
        assert "measured" in text
        assert "paper" in text
        # paper row for OVER(2): full=65
        assert "65" in text

    def test_without_paper_section(self):
        rows = run_table1(
            problems=["OVER"], sizes={"OVER": [2]}, analyzers=("gpo",)
        )
        text = format_table1(rows, with_paper=False)
        assert "paper" not in text


class TestParallelExecution:
    """--jobs N must reproduce --jobs 1 rows exactly (modulo wall time)."""

    @staticmethod
    def _shape(row):
        return (
            row.problem,
            row.size,
            row.full_states,
            row.spin_states,
            row.smv_peak,
            row.gpo_states,
            row.deadlock,
        )

    def test_jobs4_matches_sequential(self):
        kwargs = dict(
            problems=["NSDP"],
            sizes={"NSDP": [2, 4]},
            budget=Budget(max_states=2000, max_seconds=60.0),
        )
        sequential = run_table1(**kwargs)
        parallel = run_table1(**kwargs, jobs=4)
        assert [self._shape(r) for r in sequential] == [
            self._shape(r) for r in parallel
        ]

    def test_cache_round_trip_preserves_rows(self, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.engine.events import MemoryEventSink

        cache = ResultCache(tmp_path)
        sink = MemoryEventSink()
        kwargs = dict(
            problems=["RW"],
            sizes={"RW": [2]},
            budget=Budget(max_states=2000, max_seconds=60.0),
        )
        cold = run_table1(**kwargs, jobs=2, cache=cache)
        warm = run_table1(**kwargs, jobs=2, cache=cache, events=sink)
        assert [self._shape(r) for r in cold] == [
            self._shape(r) for r in warm
        ]
        assert sink.kinds().count("cache_hit") == 4  # one per analyzer
        assert sink.kinds().count("started") == 0  # nothing recomputed
