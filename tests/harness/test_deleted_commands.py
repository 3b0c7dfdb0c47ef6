"""The kept commands reproduce the verdicts of the deleted ones.

``gpo verify``, ``gpo race`` and ``gpo bench-model`` were deleted in
favour of ``gpo query`` (the one command that decides) and ``gpo table1``
(the one that prints rows).  Their stdout and exit codes were recorded
under ``goldens/`` before the deletion (``deleted_commands.json`` holds
each golden's command line and exit code, ``{name}`` standing for a net
file).  Each test runs the replacement::

    verify F --method M        ->  query F deadlock --methods M --no-static --no-cache
    verify F --timed           ->  query F deadlock --methods timed
    race F --jobs 1            ->  query F deadlock --no-static --jobs 1 --no-cache
    bench-model N S            ->  table1 --problems N:S --no-cache

and checks the verdict line and the witness line.  ``query`` speaks the
property convention for ``deadlock`` too: exit 0 means a deadlock
exists, where the deleted commands exited 1.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.harness.cli import main
from repro.models import asat, nsdp, over, rw
from repro.net import save_net

from tests.harness.test_stdout_goldens import GOLDENS, golden, mask_time

MANIFEST = json.loads(
    (GOLDENS / "deleted_commands.json").read_text(encoding="utf-8")
)

RACE_NET = (
    "place p marked\nplace q\nplace r\n"
    "trans good : p -> q @ [0,1]\n"
    "trans back : q -> p\n"
    "trans bad : p -> r @ [5,6]\n"
)

#: Deadlock exit of the deleted commands (0 = none, 1 = found) -> query's.
DEADLOCK_EXIT = {0: 1, 1: 0}


@pytest.fixture(scope="module")
def nets(tmp_path_factory):
    root = tmp_path_factory.mktemp("deleted")
    paths = {}
    for name, net in {
        "nsdp2": nsdp(2), "rw6": rw(6), "over3": over(3), "asat2": asat(2)
    }.items():
        paths[name] = str(root / f"{name}.net")
        save_net(net, paths[name])
    paths["race"] = str(root / "race.net")
    with open(paths["race"], "w", encoding="utf-8") as handle:
        handle.write(RACE_NET)
    return paths


def replacement(argv: list[str], nets: dict[str, str]) -> list[str]:
    """The kept command line for one deleted command line."""
    command, *rest = argv
    if command == "bench-model":
        problem, size = rest[:2]
        return ["table1", "--problems", f"{problem}:{size}", "--no-cache"]
    path = nets[rest[0].strip("{}")]
    if command == "race":
        return ["query", path, "deadlock", "--no-static", "--jobs", "1",
                "--no-cache"]
    assert command == "verify"
    if "--timed" in rest:
        return ["query", path, "deadlock", "--methods", "timed"]
    method = rest[rest.index("--method") + 1] if "--method" in rest else "gpo"
    return ["query", path, "deadlock", "--methods", method, "--no-static",
            "--no-cache"]


def mask(text: str) -> str:
    """``mask_time`` plus the stubborn closure's own timer."""
    return re.sub(r"stubborn_set_seconds=[\d.e+-]+",
                  "stubborn_set_seconds=<t>", mask_time(text))


@pytest.mark.parametrize(
    "name", sorted(n for n in MANIFEST if n.startswith("verify_"))
)
def test_query_reproduces_verify(nets, name, capsys):
    case = MANIFEST[name]
    code = main(replacement(case["argv"], nets))
    assert code == DEADLOCK_EXIT[case["exit"]]
    lines = mask(capsys.readouterr().out).splitlines()
    assert lines[0] == "property: deadlock"
    # The verdict line and, when a deadlock exists, the witness line.
    assert lines[1:] == mask(golden(name)).splitlines()


@pytest.mark.parametrize(
    "name", sorted(n for n in MANIFEST if n.startswith("race_"))
)
def test_query_reproduces_race(nets, name, capsys):
    case = MANIFEST[name]
    code = main(replacement(case["argv"], nets))
    assert code == DEADLOCK_EXIT[case["exit"]]
    out = capsys.readouterr().out.splitlines()
    # The race verdict, and the winner's verdict and state count.
    header, winner = golden(name).splitlines()[:2]
    verdict = re.match(r"race on \S+: (.+?) \(", header).group(1)
    method, states = re.match(
        r" \* (\w+)\s+\[ok\] .+?  (states=\d+)", winner
    ).groups()
    assert out[1].startswith(f"{method}: {verdict}  {states}  ")


def test_table1_reproduces_bench_model(nets, capsys):
    name = "bench_model_rw2.txt"
    case = MANIFEST[name]
    assert main(replacement(case["argv"], nets)) == case["exit"]

    def rows(text):
        return re.sub(r"\d+\.\d+", "<t>", text).splitlines()

    assert rows(capsys.readouterr().out) == rows(golden(name))


@pytest.mark.parametrize("command", ["verify", "race", "bench-model"])
def test_deleted_command_is_rejected(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "RW", "2"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
