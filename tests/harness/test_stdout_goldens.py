"""Byte-exact stdout goldens for the GPO-facing commands and the example.

The files under ``goldens/`` were recorded while the GPN semantics still
ran on frozenset scenario families; GPO now runs on BDD families only, so
these pin that the representation never shows in the output.  Only the
``time=...`` figure of a ``safe`` verdict varies between runs and is
masked.
"""

import re
import runpy
from pathlib import Path

import pytest

from repro.harness.cli import main
from repro.models import nsdp, rw
from repro.net import save_net

GOLDENS = Path(__file__).parent / "goldens"
EXAMPLES = Path(__file__).parents[2] / "examples"


def golden(name: str) -> str:
    return (GOLDENS / name).read_text(encoding="utf-8")


def mask_time(text: str) -> str:
    return re.sub(r"time=\d+\.\d+s", "time=<t>s", text)


def test_figure3_stdout(capsys):
    assert main(["figures", "--figure", "3"]) == 0
    assert capsys.readouterr().out == golden("figure3.txt")


def test_scenario_semantics_example_stdout(capsys):
    runpy.run_path(
        str(EXAMPLES / "scenario_semantics.py"), run_name="__main__"
    )
    assert capsys.readouterr().out == golden("scenario_semantics.txt")


@pytest.fixture(scope="module")
def nets(tmp_path_factory):
    root = tmp_path_factory.mktemp("nets")
    paths = {"rw2": str(root / "rw2.net"), "nsdp3": str(root / "nsdp3.net")}
    save_net(rw(2), paths["rw2"])
    save_net(nsdp(3), paths["nsdp3"])
    return paths


#: golden file -> (net, ``gpo safety`` flags, exit status)
SAFETY_CASES = {
    "safety_rw2_safe.txt": ("rw2", ["--bad", "writing0 & writing1"], 0),
    "safety_rw2_screen.txt": (
        "rw2",
        ["--bad", "writing0 & !controller", "--bad", "reading0 & reading1"],
        1,
    ),
    "safety_rw2_no_screen.txt": (
        "rw2",
        [
            "--no-screen",
            "--bad",
            "writing0 & !controller",
            "--bad",
            "reading0 & reading1",
        ],
        1,
    ),
    "safety_nsdp3_screen.txt": (
        "nsdp3",
        ["--bad", "eat0 & !think1", "--bad", "hasL0 & hasL1"],
        1,
    ),
    "safety_nsdp3_no_screen.txt": (
        "nsdp3",
        ["--no-screen", "--bad", "eat0 & !think1"],
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(SAFETY_CASES))
def test_safety_stdout(nets, name, capsys):
    net, flags, code = SAFETY_CASES[name]
    assert main(["safety", nets[net], *flags]) == code
    out = capsys.readouterr().out
    assert mask_time(out) == mask_time(golden(name))
