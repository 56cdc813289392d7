"""Machine-speed probe: every reported time is scaled by it.

On a shared host the speed of a core shifts by tens of percent from one
tenth of a second to the next, and for minutes at a time, while other
tenants load the machine.  So the job process times a fixed unit of work
every PERIOD_S, from a SIGALRM handler, from before `import lagpc.cli` until
its last job ends (`Probe`).  A stage's *slowdown* is the mean time of the
units that ran during it over their reference time; its measured time, less
the time spent in the handler, divided by its slowdown reads as seconds on a
machine that runs the units in their reference time (`scale`).  The raw
times stay in the result record.

During set-up the unit is pure Python (scalar math, a dict, a list of ints
and a sort), so it can run while numpy is still being imported.  Once set-up
is done (`Probe.use_numpy`) half of it is replaced by small numpy calls (a
2x2 solve, a short `exp`, a sort), the kind of work lagpc's design layers
do.  The unit never calls lagpc, so a change to lagpc moves the scaled times
in full.  The probe skips its unit while the process has live children (pool
workers), so it never competes with the job's own work; the stage's other
units cover those stretches.
"""
from __future__ import annotations

import math
import os
import signal
import time

# Reference time of each unit: fixed constants, so scaled times compare
# across runs and commits; about their median on a shared 2-core x86-64 box.
REFERENCE_S = {"python": 0.002, "mixed": 0.0024}
PERIOD_S = 0.05
WARMUP_UNITS = 3


def _has_children() -> bool:
    """Whether this process has live children; True if that cannot be read."""
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children") as f:
                if f.read().strip():
                    return True
    except OSError:
        return True
    return False


class Probe:
    """Times one unit every PERIOD_S of the main thread between `start` and
    `stop`.  `ticks` holds (start, end, unit time over its reference time, or
    None if skipped) of every handler call, on the CLOCK_MONOTONIC timeline."""

    def __init__(self):
        self.ticks = []
        self._unit = self._python_unit
        self._reference = REFERENCE_S["python"]
        # the units reuse these, so they allocate no container the garbage
        # collector tracks and never set off a collection of the job's objects
        self._counts = {}
        self._keys = [0] * 1400
        self._arrays = None

    def start(self):
        self._warm_up()
        signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def use_numpy(self):
        import numpy as np

        x = np.random.default_rng(20081006).standard_normal(4096)
        self._arrays = (np, np.array([[3.0, 0.5], [0.2, 2.5]]), np.ones(2), x)
        self._unit = self._mixed_unit
        self._reference = REFERENCE_S["mixed"]
        self._warm_up()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _python_work(self, n: int) -> float:
        acc = 0.0
        for i in range(1, n):
            acc += math.exp(-1e-5 * i) * math.log1p(i) / (1.0 + math.sqrt(i))
        counts, keys = self._counts, self._keys
        counts.clear()
        for i in range(n):
            counts[i % 97] = counts.get(i % 97, 0) + len(str(i))
            keys[i] = i * 7919 % 1009
        keys.sort()
        return acc + len(counts) + keys[0]

    def _python_unit(self) -> float:
        return self._python_work(1400)

    def _mixed_unit(self) -> float:
        np, m, v, x = self._arrays
        acc = self._python_work(700)
        for _ in range(50):
            acc += float(np.linalg.solve(m, v)[0]) + float(np.exp(x[:64]).sum())
        return acc + float(np.sort(x)[0])

    def _warm_up(self):
        begin = time.monotonic()
        for _ in range(WARMUP_UNITS):
            self._unit()
        self.ticks.append((begin, time.monotonic(), None))

    def _tick(self, signum, frame):
        start = time.monotonic()
        ratio = None
        if not _has_children():
            self._unit()
            ratio = (time.monotonic() - start) / self._reference
        self.ticks.append((start, time.monotonic(), ratio))
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)  # one-shot, so ticks never nest


def scale(begin: float, end: float, ticks, fallback: float = 1.0) -> tuple[float, float]:
    """Stage [begin, end] on the ticks' timeline: its length less the time
    spent in the handler, and its slowdown (`fallback` if no unit ran in it)."""
    inside = [(t0, t1, ratio) for t0, t1, ratio in ticks if begin <= t0 < end]
    ratios = [ratio for _, _, ratio in inside if ratio is not None]
    length = end - begin - sum(min(t1, end) - t0 for t0, t1, _ in inside)
    slowdown = sum(ratios) / len(ratios) if ratios else fallback
    return length, slowdown
