"""Byte-exact stdout goldens for the GPO-facing commands and the example.

The files under ``goldens/`` were recorded while the GPN semantics still
ran on frozenset scenario families; GPO now runs on BDD families only, so
these pin that the representation never shows in the output.  The
``safety_*`` and ``reach_*`` goldens pin ``gpo query``'s verdict and
witness lines for bad-marking invariants and reachability targets.  Only the ``time=...``
and ``states_per_second=...`` figures vary between runs and are masked.
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
    text = re.sub(r"time=\d+\.\d+s", "time=<t>s", text)
    return re.sub(r"states_per_second=[\d.]+", "states_per_second=<r>", text)


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
    paths = {
        "rw2": str(root / "rw2.net"),
        "nsdp3": str(root / "nsdp3.net"),
        "nsdp4": str(root / "nsdp4.net"),
    }
    save_net(rw(2), paths["rw2"])
    save_net(nsdp(3), paths["nsdp3"])
    save_net(nsdp(4), paths["nsdp4"])
    return paths


#: golden file -> (net, ``gpo query`` arguments, exit status) for
#: bad-marking safety questions: ``invariant(!(bad1 | bad2 ...))``,
#: decided by the planner (GPO screen first) or, for the ``no_screen``
#: cases, by the exact symbolic check alone.
SAFETY_CASES = {
    "safety_rw2_safe.txt": ("rw2", ["invariant(!(writing0 & writing1))"], 0),
    "safety_rw2_screen.txt": (
        "rw2",
        ["invariant(!((writing0 & !controller) | (reading0 & reading1)))"],
        1,
    ),
    "safety_rw2_no_screen.txt": (
        "rw2",
        [
            "invariant(!((writing0 & !controller) | (reading0 & reading1)))",
            "--methods",
            "symbolic",
        ],
        1,
    ),
    "safety_nsdp3_screen.txt": (
        "nsdp3",
        ["invariant(!((eat0 & !think1) | (hasL0 & hasL1)))"],
        1,
    ),
    "safety_nsdp3_no_screen.txt": (
        "nsdp3",
        ["invariant(!(eat0 & !think1))", "--methods", "symbolic"],
        1,
    ),
}

#: golden file -> (net, ``gpo query`` arguments, exit status) for
#: reachability targets answered by full breadth-first search, with
#: ``--no-static`` where the structural layer would otherwise answer at
#: zero states.
REACH_CASES = {
    "reach_nsdp4_eat0_eat1.txt": (
        "nsdp4",
        ["reachable(eat0 & eat1)", "--methods", "full", "--no-static"],
        1,
    ),
    "reach_nsdp4_eat0.txt": (
        "nsdp4",
        ["reachable(eat0)", "--methods", "full"],
        0,
    ),
    "reach_nsdp4_eat0_eat1_reduce.txt": (
        "nsdp4",
        [
            "reachable(eat0 & eat1)",
            "--methods",
            "full",
            "--no-static",
            "--reduce",
        ],
        1,
    ),
    "reach_nsdp4_eat0_reduce.txt": (
        "nsdp4",
        ["reachable(eat0)", "--methods", "full", "--reduce"],
        0,
    ),
}


def _query_stdout(nets, capsys, name, case):
    net, args, code = case
    assert main(["query", nets[net], *args, "--no-cache"]) == code
    out = capsys.readouterr().out
    assert mask_time(out) == mask_time(golden(name))


@pytest.mark.parametrize("name", sorted(SAFETY_CASES))
def test_safety_stdout(nets, name, capsys):
    _query_stdout(nets, capsys, name, SAFETY_CASES[name])


@pytest.mark.parametrize("name", sorted(REACH_CASES))
def test_reach_stdout(nets, name, capsys):
    _query_stdout(nets, capsys, name, REACH_CASES[name])


#: golden file -> net for ``gpo dot --rg``: the full reachability graph's
#: states in discovery order and its edges, byte for byte.
DOT_RG_CASES = {
    "dot_rg_rw2.txt": "rw2",
    "dot_rg_nsdp3.txt": "nsdp3",
}


@pytest.mark.parametrize("name", sorted(DOT_RG_CASES))
def test_dot_rg_stdout(nets, name, capsys):
    assert main(["dot", nets[DOT_RG_CASES[name]], "--rg"]) == 0
    assert capsys.readouterr().out == golden(name)
