"""Time to verdict, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload table1-gpo --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``table1-gpo``, ``table1-explicit``,
``table1-symbolic`` (in-process ``execute_job`` runs) and ``served-mix``
(a closed loop against ``gpo serve``).  Every job is checked against the
hand-written answers in ``expected.json``; a wrong, undecided or
erroring job is a failed operation and makes the command exit 1.

``--trace 0`` measures the end-to-end metrics with nothing wrapped; the
in-process workloads report their times scaled to a nominal host speed
(see ``pace.py``).  The metric names and units are ``BENCHMARK.json``'s.
``--trace 1`` runs one plain pass and one traced pass (see ``spans.py``)
and reports the per-layer metrics, including the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list each
metric with its unit and sample count, and the provenance stamp.  Spans
and the full report are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import workloads

HERE = Path(__file__).resolve().parent


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe_setup(root: Path, workload: str) -> float:
    """Seconds from interpreter start to a ready workload (``probe.py``)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
    begin = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload],
                            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    assert proc.stdout is not None
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - begin
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed for {workload}")
    return elapsed


def provenance(seed: int) -> dict[str, Any]:
    from repro.obs.benchmeta import bench_metadata

    try:
        import numpy
        numpy_version: str | None = numpy.__version__
    except ImportError:
        numpy_version = None  # the batch expansion path is off without it
    return {**bench_metadata(), "numpy": numpy_version, "seed": seed}


def _exit_on_signal(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    # Handled (not ignored) signals reset to their defaults in the
    # processes this one starts, so a daemon stopped with SIGINT shuts
    # down cleanly even when this run was started with SIGINT ignored.
    # SIGTERM unwinds through the clean-up code, which stops the daemon.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _exit_on_signal)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # Keep the provenance stamp's git lookup inside this checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    expected = workloads.load_expected(HERE / "expected.json")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    trace = bool(args.trace)

    if args.workload == workloads.SERVED:
        import served

        report = served.run(args.seed, args.seconds, trace, expected, out_dir, root)
    else:
        import inproc

        report = inproc.run(args.workload, args.seed, args.seconds, trace, expected,
                            lambda: _probe_setup(root, args.workload))

    # The metric names and units are BENCHMARK.json's.
    catalogue = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        measured = report["per_layer"]
        # A layer that did not run on this workload reads 0.
        values = {name: measured.get(name, (0.0, unit, 0)) for name, unit in catalogue.items()}
    else:
        values = {name: report["metrics"][name] for name in catalogue}
    shown = {**values, **report.get("extra_metrics", {})}
    meta = provenance(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit, samples) in shown.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<6} n={samples}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")

    failed = len(report["failures"])
    result = {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": unit}
                    for name, unit in catalogue.items()},
    }
    full = {**result, "meta": meta, "workload": args.workload,
            "samples": {name: v[2] for name, v in shown.items()},
            "extra_metrics": {k: {"value": v[0], "unit": v[1]}
                              for k, v in report.get("extra_metrics", {}).items()},
            "failures": report["failures"]}
    if "spans" in report:
        (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "job"],
                        "spans": report["spans"]}, separators=(",", ":")), encoding="utf-8")
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
