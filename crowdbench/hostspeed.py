"""Host-speed sampling: how fast the CPU the timed work runs on is, over time.

The benchmark runs on shared hosts, where one vCPU runs the same pure-Python
loop up to two times slower or faster, in stretches of seconds to minutes,
with the load of other tenants.  Process CPU time slows with it, so no choice
of clock removes it.  A calibration run before or after the timed work misses
stretches that change within seconds, and the two vCPUs of a two-CPU guest
change independently of each other.

So the benchmark samples the speed while the work runs.  ``pin_to_one_cpu``
puts every process of a run on one CPU, and a ``Sampler`` thread in the
benchmark process runs a fixed unit of pure-Python work on it every
``SAMPLE_INTERVAL_S``.  A wall-clock interval converts to reference seconds,
the time it would have taken with the CPU at the reference speed::

    reference_s = wall_s * REF_UNIT_S / (mean unit time in the interval)

``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so intervals timed by
the benchmark's child processes convert with the same sampler.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from typing import Callable, Dict, List

#: Seconds between two samples.  A unit takes about a tenth of a millisecond,
#: so the sampler takes about 0.2% of the CPU it shares with the timed work.
SAMPLE_INTERVAL_S = 0.05
#: Seconds a sampled ``unit()`` takes on the reference box (a two-vCPU Xeon
#: guest at 2.1 GHz, Python 3.11) in a fast stretch, rounded.  It only sets
#: the scale of reference seconds, so that they read close to wall seconds.
REF_UNIT_S = 100e-6
#: An interval with fewer samples than this is widened on both sides.
MIN_SAMPLES = 10
#: A sample this many times the interval's median was preempted, not slow.
OUTLIER_FACTOR = 4.0


def pin_to_one_cpu() -> int:
    """Pin this process, and the threads and processes it starts later, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def weight(self) -> int:
        return self.x * 3 + self.y


def unit() -> int:
    """The fixed unit of work: object creation, attribute reads, method calls.

    Of the units tried against builds over stretches of host load (integer
    arithmetic with dict updates, small dicts sorted by a string key, random
    reads from a large list, and this one), this one's speed followed the
    builds' speed closest.
    """
    total = 0
    for i in range(300):
        total += _Point(i, i + 1).weight()
    return total


class Sampler:
    """Times ``unit()`` every ``SAMPLE_INTERVAL_S`` on a daemon thread."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            start = time.perf_counter()
            unit()
            end = time.perf_counter()
            # One appender, and readers copy the lists under the GIL.
            self.durations.append(end - start)
            self.starts.append(start)

    def _window(self, t0: float, t1: float) -> List[float]:
        starts, durations = list(self.starts), self.durations[:len(self.starts)]
        if len(starts) < MIN_SAMPLES:
            raise RuntimeError(f"only {len(starts)} host-speed samples so far")
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_left(starts, t1)
        while hi - lo < MIN_SAMPLES:
            lo, hi = max(0, lo - 1), min(len(starts), hi + 1)
        return durations[lo:hi]

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over ``[t0, t1)``."""
        window = self._window(t0, t1)
        cutoff = OUTLIER_FACTOR * statistics.median(window)
        return REF_UNIT_S / statistics.fmean([d for d in window if d <= cutoff])

    def seconds(self, t0: float, t1: float) -> float:
        """The wall interval ``[t0, t1]`` in reference seconds."""
        return (t1 - t0) * self.factor(t0, t1)

    def binned(self, t0: float, t1: float, width: float = 1.0) -> Callable[[float], float]:
        """A ``time -> factor`` map over ``[t0, t1]``, constant in ``width``-second bins."""
        cache: Dict[int, float] = {}

        def factor_at(t: float) -> float:
            index = int((t - t0) // width)
            if index not in cache:
                lo = t0 + index * width
                cache[index] = self.factor(lo, min(lo + width, t1))
            return cache[index]

        return factor_at
