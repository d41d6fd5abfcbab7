"""The host's speed around each operation, from fixed work in the benchmark's own code.

The host runs in speed phases: the same call takes up to 1.5 times as long
in a slow phase as in a fast one, a phase lasts from seconds to minutes,
longer than a run, and within a phase the speed flickers from one
operation to the next.  Process CPU time follows wall time, so it does not
help.  The kernel here is exact integer and Laurent-polynomial work like
the program's, written without the package, so no change to the program
moves its time.  Run between operations for a twentieth of their time, it
follows the phases; its mean time near an operation, over KERNEL_MS, is the
host's slowdown there.
"""

from __future__ import annotations

import bisect
import random
import time

import references

# The kernel's time at the reference speed, and so the unit of normalised
# times: on a 2.0 GHz Xeon it took 1.7 ms in fast phases and 2.5 ms in slow.
KERNEL_MS = 2.0
# Kernel time after each operation, as a share of the operation's time.
SHARE = 0.05
# Samples that end this close to an operation count for it, in seconds.
WINDOW = 0.5

_rng = random.Random(0)
LETTERS = tuple(_rng.choice((1, -1)) * _rng.randint(1, 4) for _ in range(30))
MATRIX = tuple(tuple(_rng.randint(-3, 3) for _ in range(24)) for _ in range(24))


def kernel() -> None:
    references.burau(LETTERS, 5)
    references.bareiss_det(MATRIX)


class HostClock:
    """Kernel samples, by the time each ended, with prefix sums of their durations."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.total = [0.0]

    def sample(self, seconds: float) -> None:
        """Run the kernel for about the given time, and at least once."""
        stop = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.ends.append(end)
            self.total.append(self.total[-1] + end - start)
            if end >= stop:
                return

    def after(self, elapsed: float) -> None:
        """Sample after an operation that took the given time."""
        self.sample(SHARE * elapsed)

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time of the samples ending within WINDOW of [start, end], over KERNEL_MS."""
        lo = bisect.bisect_left(self.ends, start - WINDOW)
        hi = bisect.bisect_right(self.ends, end + WINDOW)
        return 1000.0 * (self.total[hi] - self.total[lo]) / ((hi - lo) * KERNEL_MS)
