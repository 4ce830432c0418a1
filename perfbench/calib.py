"""Host-speed calibration: a fixed pure-Python burst timed next to the work.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, and a run's timings drift with it.  A
burst of fixed interpreter work (dict stores, integer arithmetic), timed
on the benchmark's own side right before and after each measured
operation, slows with the host in step, so every reported time is
rescaled to the reference speed at which one burst takes :data:`REF_S`:

    reported = measured * REF_S / burst

The burst never runs while the program under test is working (it fills
the idle time between operations or requests), and it runs no code of
the program, so a change to the program moves only ``measured``.  Runs
print the raw figures and the median burst next to the rescaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Sequence

#: Loop iterations of one burst (about a millisecond).
ITERS = 4000
#: Reference duration of one burst (its median on an idle 2-vCPU Xeon
#: virtual machine): a rescaled time is the time at that machine's speed.
REF_S = 0.0011
#: Bursts timed at each calibration point between batch operations.
BURSTS = 5
#: Calibration bursts whose median rescales one request.
NEAREST = 5


def burst() -> float:
    """Seconds one fixed burst of interpreter work takes now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(ITERS):
        table[i & 1023] = i
        acc += (i * 7) % 13 + len(table)
    return time.perf_counter() - start


def point() -> float:
    """One calibration point: the median of :data:`BURSTS` bursts."""
    return statistics.median(burst() for _ in range(BURSTS))


def scale(seconds: float, cal: float) -> float:
    """``seconds`` measured while a burst took ``cal``, at reference speed."""
    return seconds * REF_S / cal


def nearest(times: Sequence[float], cals: Sequence[float], t: float) -> float:
    """Median of the :data:`NEAREST` bursts timed around clock reading ``t``.

    ``times`` are the bursts' clock readings, ascending, and ``cals``
    their durations.
    """
    if not cals:
        raise ValueError("no calibration bursts")
    k = min(NEAREST, len(cals))
    lo = min(max(0, bisect.bisect_left(times, t) - k // 2), len(cals) - k)
    return statistics.median(cals[lo:lo + k])
