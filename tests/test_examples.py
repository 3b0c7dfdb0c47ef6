"""The property-checking examples run end to end on small instances.

Both examples assert their own verdicts; running them here keeps their
imports and their ``repro.query`` property text from rotting silently.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parents[1] / "examples"


@pytest.mark.parametrize(
    "script, size, expected",
    [
        ("arbiter_mutex.py", "2", "mutual exclusion: static: property holds"),
        ("embedded_modem.py", "1", "the handshake invariants hold"),
    ],
)
def test_example_runs(script, size, expected, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script, size])
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert expected in capsys.readouterr().out
