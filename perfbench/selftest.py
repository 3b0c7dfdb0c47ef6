"""Self-test of the benchmark (about three minutes).

Run from the repository root:

    python3 perfbench/selftest.py

Checks, in order:

* a short run (one round, ``--seconds 1``) of every workload exits 0,
  reports no failed job, and every end-to-end metric is non-zero;
* a traced run of every workload exits 0 and reports no failed job;
* a copy of the benchmark whose known answers have one answer tampered
  with reports a failed job and exits non-zero;
* a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files makes the command exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEED = 1


def _run(workload: str, trace: int, script: Path = HERE / "run.py",
         cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.splitlines()


def _result(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"unexpected result keys {sorted(result)}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []

    def check(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message, flush=True)
        if not ok:
            problems.append(message)

    for workload in (w["name"] for w in spec["workloads"]):
        code, lines = _run(workload, 0)
        result = _result(lines)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"{workload}: every job verified ({result['attempted']} attempted)")
        check(all(m["value"] > 0 for m in result["metrics"].values()),
              f"{workload}: every end-to-end metric is non-zero")

        code, lines = _run(workload, 1)
        result = _result(lines)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"{workload} traced: every job verified")

    workdir = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        tampered = workdir / "tampered"
        shutil.copytree(HERE, tampered, ignore=shutil.ignore_patterns("__pycache__"))
        answers = tampered / "expected.json"
        expected = json.loads(answers.read_text(encoding="utf-8"))
        expected["table1"]["NSDP(2)"]["gpo"] += 1
        answers.write_text(json.dumps(expected), encoding="utf-8")
        code, lines = _run("table1-gpo", 0, tampered / "run.py")
        result = _result(lines)
        check(code != 0 and not result["correct"] and result["failed"] >= 1,
              "a tampered known answer fails the run")

        bare = workdir / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run("table1-gpo", 0, bare / "perfbench" / "run.py", bare)
        check(code != 0 and not lines, "without the program the command fails and prints nothing")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("self-test " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
