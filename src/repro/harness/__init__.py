"""Experiment harness: regenerate the paper's Table 1 and figures."""

from repro.harness.figures import (
    figure1_series,
    figure2_series,
    figure3_walkthrough,
    format_series,
)
from repro.harness.report import format_number, format_table
from repro.harness.table1 import (
    DEFAULT_SIZES,
    PAPER_TABLE1,
    PROBLEMS,
    Table1Row,
    format_table1,
    run_instance,
    run_table1,
)

__all__ = [
    "PROBLEMS",
    "DEFAULT_SIZES",
    "PAPER_TABLE1",
    "Table1Row",
    "run_instance",
    "run_table1",
    "format_table1",
    "figure1_series",
    "figure2_series",
    "figure3_walkthrough",
    "format_series",
    "format_table",
    "format_number",
]
