"""Machine-speed calibration for the reported times.

On a shared host the CPU speed a process gets swings by tens of percent
over tens of seconds (measured on a 2-vCPU 2.1 GHz Xeon VM: the same job
took 2.0 s in one minute and 3.6 s in the next), which no run length of a
minute or less averages out.  A fixed pure-Python loop, timed right before
and right after a measured interval, tells how fast the machine ran at that
moment.  Rescaling the interval by ``REFERENCE_S / loop time`` gives its
duration at one fixed reference speed.  A change that slows dictsieve
lengthens the interval and not the loop, so it shows in full.
"""

from __future__ import annotations

import time

LOOP_ITERATIONS = 1_500_000
# loop time at the reference speed; about the typical loop time on the VM
# above, so rescaled times read close to its wall times
REFERENCE_S = 0.15


def loop_seconds() -> float:
    """Wall time of the fixed calibration loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Factor that turns wall seconds into reference-speed seconds."""
    return REFERENCE_S / ((before + after) / 2.0)
