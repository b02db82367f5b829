"""Machine speed probe, to take the host's speed swings out of timed operations.

On a shared virtual machine the same code runs up to 1.5 times slower for
seconds to minutes at a time, in wall and in CPU time alike, and a run of
the benchmark cannot average such spells out. Every timed operation is therefore
bracketed by two runs of a fixed probe that does not touch greglink (a
pure-Python loop and numpy sorts, the two kinds of work greglink does).
The probe's time over ``REFERENCE_S`` is the operation's slowdown, and the
operation's time divided by its slowdown is its time at the reference speed.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

# the probe's time on the baseline machine (see choices.json) at its fast speed
REFERENCE_S = 0.0015

_DATA = np.random.default_rng(0).random(50_000)


def _unit() -> float:
    start = time.perf_counter()
    sum(i * i for i in range(20_000))
    for _ in range(2):
        np.sort(_DATA)
    return time.perf_counter() - start


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python and numpy work.

    The work runs pinned to each CPU this process may use in turn, because
    the CPUs of a shared machine slow down independently and a ``workers=2``
    operation uses them all; on each the median of five repeats counts, so
    that one interrupted repeat does not. The result is the mean over CPUs.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(statistics.median(_unit() for _ in range(5)))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


class Stopwatch:
    """Wall time of the ``with`` block and the machine's slowdown around it.

    With ``calibrate`` false the probe is skipped and the slowdown is 1.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.seconds = 0.0
        self.slowdown = 1.0

    def __enter__(self) -> Stopwatch:
        self._before = probe() if self.calibrate else 0.0
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
        if self.calibrate:
            self.slowdown = (self._before + probe()) / (2 * REFERENCE_S)
