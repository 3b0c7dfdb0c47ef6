"""Host speed, from a fixed loop the benchmark owns.

The speed of a shared host can drift by a third or more within a minute
(other tenants share its cores and caches), and the drift moves every
pure-Python program much alike.  So an in-process workload times this
module's fixed loop every quarter second between jobs, and reports every
time scaled by ``NOMINAL_S / (the loop's time around that moment)``:
seconds on a host where the loop takes ``NOMINAL_S``.  The loop runs in
a helper process of its own (this file run as a script), only while no
job runs, so neither the program's memory nor its work moves the loop's
time: a change to the program moves the jobs and not the loop, and
shows in full.  Each run prints the loop's median time beside its
results (``host_loop_ms``).

The served workload is not scaled: much of a served latency is timer
waits and socket round trips (the daemon's dispatcher polls every
20 ms), which do not move with host speed, and scaling them widened the
served spreads.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

#: The loop's time on a host of nominal speed (about this loop's time on
#: a 2-vCPU cloud VM with Python 3.11).
NOMINAL_S = 0.010
#: Least time between two samples taken by ``tick``.
INTERVAL_S = 0.25
#: Samples nearest in time to a measurement that decide its speed.
NEAREST = 6


def loop() -> None:
    """Fixed pure-Python work that allocates as the program does: a
    dict of tuple keys and list values, built and then walked."""
    table: dict[tuple[int, int], list[int]] = {}
    for i in range(20_000):
        table[(i, i * 7 % 1009)] = [i, i + 1]
    total = 0
    for value in table.values():
        total += value[0]


class Pace:
    """Timed runs of ``loop`` in a helper process, over a benchmark run.

    Use as a context manager; leaving it stops the helper.
    """

    def __init__(self) -> None:
        #: (perf_counter midpoint, seconds) of each run of the loop.
        self.samples: list[tuple[float, float]] = []
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def __enter__(self) -> Pace:
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._helper.stdin is not None and self._helper.stdout is not None
        self._helper.stdin.close()
        self._helper.wait()
        self._helper.stdout.close()

    def sample(self) -> None:
        # perf_counter is the system-wide monotonic clock on Linux, so the
        # helper's times compare with this process's.
        assert self._helper.stdin is not None and self._helper.stdout is not None
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        at, seconds = self._helper.stdout.readline().split()
        self.samples.append((float(at), float(seconds)))

    def tick(self) -> None:
        """Sample if the last sample is ``INTERVAL_S`` old."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.sample()

    def scale(self, at: float, seconds: float) -> float:
        """``seconds`` measured around ``perf_counter`` time ``at``, in
        seconds at nominal speed."""
        near = sorted(self.samples, key=lambda s: abs(s[0] - at))[:NEAREST]
        return seconds * NOMINAL_S / statistics.median(d for _, d in near)

    def loop_ms(self) -> float:
        return 1000.0 * statistics.median(d for _, d in self.samples)


def _helper() -> None:
    """Run the loop once per line read; answer each with its midpoint
    and time.  Ends when its input closes."""
    gc.disable()  # the loop makes no cycles
    for _ in sys.stdin:
        begin = time.perf_counter()
        loop()
        end = time.perf_counter()
        print((begin + end) / 2, end - begin, flush=True)


if __name__ == "__main__":
    _helper()
