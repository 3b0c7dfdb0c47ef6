"""Set-up probe of an in-process workload, run in a fresh interpreter.

Imports the program, builds every net of the workload and runs one tiny
job per analyzer (so lazily imported modules are loaded), then prints
``ready``.  The parent times the probe from process start to that line.

Usage: ``python3 perfbench/probe.py WORKLOAD`` from the repository root,
with ``src`` on ``PYTHONPATH``.
"""

import sys

import inproc
import workloads


def main(workload: str) -> None:
    jobs = workloads.jobs_for(workload, 0)
    for job in jobs:
        workloads.build_net(job.family, job.size)
    inproc.warm_up(jobs)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
