"""Host speed, measured by a fixed kernel in an interpreter of its own.

The benchmark runs on shared hosts whose speed drifts: every timing of one
run moves by a common factor, in phases of minutes, by up to 1.7x.  A run
therefore also times :data:`KERNEL` between ops, in a separate
``python -I`` child that loads nothing from the repository, so no change to
the compiler can make the kernel slower or faster.  The run's host factor
is the median kernel time over :data:`NOMINAL_MS`; ``run.py`` divides each
timing by the factor of the span it was measured in.

The child starts once per run, on the one CPU the run is pinned to, waits
on its standard input while the benchmark works (so at most one of the two
processes computes at a time), and is stopped and waited for when the run
ends.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: Kernel time on the 2-vCPU development host (Python 3.11.7), about its median.
NOMINAL_MS = 8.0

#: Least time between two samples taken by :meth:`HostReference.maybe_sample`.
INTERVAL_S = 0.25

#: Pure-Python work of the two kinds a compile does: arithmetic, dict and
#: tuple traffic, sorting and string building on a small working set, which
#: tracks the host's clock speed, and reads scattered over a heap of
#: compiler size, which tracks its memory contention.  In a 150-second
#: recording over 5- and 10-second windows on the development host, cold
#: compiles, memory hits and ``python -c "import repro.api"`` moved 0.7-0.85
#: times as much as the first kind alone, and 1.0-1.3 times as much with
#: 3000 scattered reads added; the 2000 reads here sit between the two.  The
#: child runs the kernel once per line read and answers with its time in ms.
KERNEL = """
import random, sys, time
from fractions import Fraction

rng = random.Random(1)
heap = [{"key": (i, i % 7), "value": [i, i + 1, str(i)]} for i in range(100000)]
scattered = rng.sample(range(100000), 2000)

def kernel():
    table = {}
    for i in range(6000):
        key = (i % 61, (i * 7) % 29)
        table[key] = table.get(key, 0) + (i * i) // 13
    order = sorted(table.items(), key=lambda item: (item[1] % 97, item[0]))
    total = Fraction(0)
    for (a, b), value in order[:200]:
        total += Fraction(value % 89 + 1, a + b + 1)
    text = ",".join(f"{a}:{b}" for (a, b), _ in order)
    reads = 0
    for i in scattered:
        entry = heap[i]
        reads += entry["key"][0] + len(entry["value"][2])
    return total, len(text), reads

kernel()
for line in sys.stdin:
    start = time.perf_counter_ns()
    kernel()
    print((time.perf_counter_ns() - start) / 1e6, flush=True)
"""


class HostReference:
    """The kernel child of one run, and the kernel times it reported."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = 0.0
        self._child = subprocess.Popen(
            [sys.executable, "-I", "-c", KERNEL],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> HostReference:
        return self

    def __exit__(self, *_: object) -> None:
        self.close()

    def close(self) -> None:
        if self._child.poll() is None:
            self._child.stdin.close()
            try:
                self._child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._child.kill()
                self._child.wait()
        self._child.stdout.close()

    def sample(self, repeats: int = 1) -> None:
        """Time the kernel ``repeats`` times, now."""
        for _ in range(repeats):
            self._child.stdin.write("\n")
            self._child.stdin.flush()
            self.samples.append(float(self._child.stdout.readline()))
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Time the kernel once if :data:`INTERVAL_S` has passed since the last."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def take(self) -> list[float]:
        """The samples since the last ``take``, removed from the store."""
        taken, self.samples = self.samples, []
        return taken


def factor(samples: list[float]) -> float:
    """How much slower than nominal the host ran over ``samples``."""
    return statistics.median(samples) / NOMINAL_MS
