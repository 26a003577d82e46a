"""A fixed stdlib-only loop that measures how fast the host runs Python now.

On a shared host the same Python code runs up to twice as slow in some
minutes as in others, and by a tenth or more from one second to the next,
with CPU time equal to wall time, so neither longer runs nor CPU time remove
the drift.  While the benchmark times the program, an interval timer runs one
short unit of this loop every ``EVERY_S`` seconds, in the same thread, in
between the program's bytecodes; the unit's time is taken out of the job it
interrupted.  The units thus sample the host's speed at the moments the
program runs, and each job's time is scaled by ``UNIT_NOMINAL_S`` over the
mean time of the units run within ``MARGIN_S`` of it.  The loop never calls
cobforge, so a change to the program moves the program's times and not the
scale.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from array import array

# Median seconds of one unit run between the program's bytecodes on the 2-vCPU
# machine the bounds were set on (Python 3.11); run alone it takes 5-9 ms.  It
# only fixes the unit: reported times are in seconds of that machine at its
# median speed.
UNIT_NOMINAL_S = 0.0085

# Seconds between the end of one unit and the start of the next: a unit for
# about every five of program time.
EVERY_S = 0.045

# A stretch of program time is scaled by the units within this much program
# time of it: wide enough to hold a few units for a job of a few milliseconds,
# narrow enough to follow the host's speed within a second.  Of 0.05-3 s, 0.1 s
# gave the smallest spread of job_p50_ms on plan_sweep, where it is widest.
MARGIN_S = 0.1

_MASK = (1 << 256) - 1


def unit() -> float:
    """Run one unit of the reference loop; return its seconds.

    Apart from one dict, one list and one function it allocates only ints and
    strings, which the cyclic garbage collector does not track, so it does not
    bring a collection forward in the program it interrupts.
    """
    t0 = time.perf_counter()
    x, table = 1, {}
    for i in range(4400):
        x = (x * 6364136223846793005 + i) & _MASK
        table[i & 255] = table.get(i & 255, 0) ^ (x >> 128)
    h = 0
    for i in range(3600):
        h ^= hash(f"{i % 31}:{i % 37}:{i % 41}:{i % 7}")
    order = sorted(range(7000), key=lambda i: i * 7919 % 7001)
    if len(table) + len(order) + (h & 1) == 0:
        raise AssertionError("reference loop did no work")
    return time.perf_counter() - t0


class Pacer:
    """Runs reference units on a timer while armed and keeps each one.

    ``clock()`` is a program clock: it stops while a unit runs, so the units
    take nothing from the times measured on it.  Each unit is kept with its
    place on that clock, so a stretch of program time is scaled by the units
    run during it.
    """

    def __init__(self) -> None:
        self.at = array("d")  # program-clock time of each unit
        self.took = array("d")  # seconds of each unit
        self.spent_s = 0.0
        self._previous = None

    def clock(self) -> float:
        """Seconds on a clock that stops while a unit runs."""
        return time.perf_counter() - self.spent_s

    def _run_unit(self, rearm: bool) -> None:
        t0 = time.perf_counter()
        self.at.append(t0 - self.spent_s)
        self.took.append(unit())
        if rearm:
            signal.setitimer(signal.ITIMER_REAL, EVERY_S)  # one-shot, so ticks never nest
        self.spent_s += time.perf_counter() - t0

    def _tick(self, _signum, _frame) -> None:
        self._run_unit(rearm=True)

    def __enter__(self) -> "Pacer":
        """Run a unit, then one every ``EVERY_S`` until exit, and one at exit."""
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._run_unit(rearm=True)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._run_unit(rearm=False)

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Nominal seconds per host second over the program-clock stretch
        [start, end], widened by ``MARGIN_S`` on each side."""
        lo = bisect.bisect_left(self.at, start - MARGIN_S)
        hi = bisect.bisect_right(self.at, end + MARGIN_S)
        return UNIT_NOMINAL_S * (hi - lo) / sum(self.took[lo:hi])
