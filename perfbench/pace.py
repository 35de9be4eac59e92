"""Host pace: how fast this machine runs Python right now.

On a shared host, other tenants' load slows a process by a factor that drifts
within seconds (by up to 40% within a minute on a 2-vCPU virtual machine).
The benchmark therefore times a short fixed pure-Python loop every
``PERIOD_S`` between items of work and divides each stretch of wall time by
the slowdown measured at its ends, ``loop time / REFERENCE_S``. The result is
the time the work would have taken at the reference pace. It follows the
program's own cost much more closely than wall time does; contention for
disk or memory that the loop does not feel still shows.
"""

from __future__ import annotations

import time

LOOP_ITERS = 6_000
REFERENCE_S = 0.001  # loop time at the reference pace
PERIOD_S = 0.05  # time between samples taken by tick()
SMOOTHING = 0.25  # weight of the newest sample in ``current``


def _loop() -> int:
    acc, seen = 0, {}
    for i in range(LOOP_ITERS):
        acc += i * i % 7
        seen[i & 63] = acc
    return acc


class Pace:
    """Pace samples taken between items; their own time is kept in ``spent``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.marks: list[tuple[float, float]] = []  # (start, loop time) per sample
        self.spent = 0.0
        self.current = 1.0  # smoothed slowdown, for items between samples
        self._due = 0.0

    def sample(self) -> None:
        start = self.clock()
        _loop()
        took = self.clock() - start
        self.marks.append((start, took))
        self.spent += took
        weight = SMOOTHING if len(self.marks) > 1 else 1.0
        self.current += weight * (took / REFERENCE_S - self.current)
        self._due = start + took + PERIOD_S

    def tick(self) -> None:
        """Take a sample if the last one is older than ``PERIOD_S``."""
        if self.clock() >= self._due:
            self.sample()

    def reference_time(self, first: int = 0) -> float:
        """Time from sample ``first`` to the latest, less the samples' own
        time, at the reference pace: each stretch between two samples is
        divided by the mean slowdown of the two."""
        total = 0.0
        for (s0, t0), (s1, t1) in zip(self.marks[first:], self.marks[first + 1:]):
            total += (s1 - s0 - t0) * 2 * REFERENCE_S / (t0 + t1)
        return total
