"""Tests for the figure-series harness: the paper's formulas, literally."""

from pathlib import Path

from repro.harness import (
    figure1_series,
    figure2_series,
    figure3_walkthrough,
    format_series,
)


class TestFigure1:
    def test_formulas(self):
        for row in figure1_series(sizes=(1, 2, 3, 4, 5)):
            assert row.full_states == 2**row.n
            assert row.reduced_states == row.n + 1
            assert row.gpo_states == 2


class TestFigure2:
    def test_formulas(self):
        # The §2.3/§3.1 claims: 2^(n+1)-1 for PO, 2 for GPO, 3^n full.
        for row in figure2_series(sizes=(1, 2, 3, 4, 5, 6)):
            assert row.full_states == 3**row.n
            assert row.reduced_states == 2 ** (row.n + 1) - 1
            assert row.gpo_states == 2


class TestFigure3:
    def test_walkthrough_passes_assertions(self):
        transcript = figure3_walkthrough()
        assert "fire {A,B}" in transcript
        assert "D blocked" in transcript

    def test_walkthrough_bdd_backend(self):
        # Recorded on the frozenset family oracle; BDD families must
        # render the very same transcript.
        golden = Path(__file__).parent / "goldens" / "figure3.txt"
        expected = golden.read_text(encoding="utf-8")
        assert figure3_walkthrough() + "\n" == expected


def test_format_series():
    text = format_series(figure1_series(sizes=(1, 2)), title="demo")
    assert "demo" in text
    assert "PO-reduced" in text
