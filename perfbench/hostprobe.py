"""Host speed: a sampler that times a fixed pure-Python Fraction kernel.

On a shared 2-CPU virtual machine, each CPU was seen to switch between a
fast and a slow state (the kernel takes about 1.8 times longer) every few
tenths of a second, independently of the other CPU, while the share of slow
time drifted over minutes.  Raw task times move with it.  The benchmark
scales its bounded times to a host on which the kernel takes REF_MS.

The kernel runs in a sibling interpreter (``Sampler``), never in the process
under test, so it shares no heap, garbage-collector state or allocator with
the program: a change to ``pencilspace`` reaches the kernel only through
the CPU.  The sibling wakes every INTERVAL_S and runs the kernel twice,
timing the second run only: the first run after a task was about 50%
slower, by an amount that depends on what the task left in the caches.
Sampling costs about 4% of the CPU.  ``pin_one_cpu`` keeps both processes
on one CPU, so the samples taken while a task runs measure the speed of the
CPU it ran on.  Scaled by probes taken only between tasks, the time of a
repeated 0.25 s task spread by about 15%; scaled by the samples taken
during it, by about 5%.

Run as a script, this module is the sampler: it times the kernel every
INTERVAL_S and, for each line on stdin, prints the samples taken since the
last request as a JSON list of [start, ms] pairs.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

KERNEL_SIZE = 4
INTERVAL_S = 0.01
REF_MS = 0.1  # about the kernel's time on that machine's fast state


def eliminate() -> None:
    """Fraction elimination of the KERNEL_SIZE Hilbert matrix."""
    n = KERNEL_SIZE
    a = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]


def kernel() -> list:
    """One sample, [start, ms]: eliminate() once to warm up, then timed.
    ``start`` is time.perf_counter(), which is system-wide on Linux."""
    eliminate()
    t0 = time.perf_counter()
    eliminate()
    return [t0, (time.perf_counter() - t0) * 1e3]


def pin_one_cpu():
    """Restrict this process, and every process it starts, to its lowest
    allowed CPU.  Returns the previous CPU set, or None where the platform
    has no affinity call."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def unpin(allowed) -> None:
    if allowed is not None:
        os.sched_setaffinity(0, allowed)


class Sampler:
    """The sibling interpreter that samples the kernel's time."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        self.taken: list = []

    def collect(self) -> "Timeline":
        """All samples so far, as a Timeline."""
        self._proc.stdin.write("\n")
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the sampler process ended")
        self.taken += json.loads(line)
        return Timeline(self.taken)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Timeline:
    """Kernel samples in time order."""

    def __init__(self, samples: list):
        self.samples = samples
        self.starts = [start for start, _ in samples]

    def window(self, start: float, end: float) -> list:
        """Kernel times (ms) of the samples taken in [start, end], and of
        the one just before and the one just after."""
        lo = max(0, bisect.bisect_left(self.starts, start) - 1)
        hi = bisect.bisect_right(self.starts, end) + 1
        return [ms for _, ms in self.samples[lo:hi]]

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over [start, end], over REF_MS."""
        return statistics.fmean(self.window(start, end)) / REF_MS


def serve() -> None:
    samples = [kernel()]  # so that every request gets at least one
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if not ready:
            samples.append(kernel())
            continue
        if not sys.stdin.readline():
            return
        print(json.dumps(samples), flush=True)
        samples = []


if __name__ == "__main__":
    serve()
