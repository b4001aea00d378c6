"""Order statistics, the calibration loop and the host-speed sampler."""

from __future__ import annotations

import signal
import statistics
import time
from typing import Sequence

#: A workload is flagged ``noisy`` when the calibration loop before and
#: after it differ by more than this share.
NOISY_SHARE = 0.10
#: The sampler runs this many iterations of the calibration loop per
#: tick, one tick every TICK_INTERVAL_S seconds of a repeat (~2% of it).
TICK_ITERATIONS = 20_000
TICK_INTERVAL_S = 0.04
#: What one tick takes on the 2-core sandbox when the host leaves it
#: alone.  The sandbox slows down by 10-40% for seconds to minutes at a
#: time (a neighbour on the same physical core; CPU time inflates with
#: wall time, no steal is reported), so timings are scaled to this
#: nominal speed.  In the undisturbed state the scale is 1 and a scaled
#: second is a host second.
NOMINAL_TICK_S = 0.000825


def _loop(iterations: int) -> float:
    """Seconds taken by a fixed pure-Python integer loop: interpreter
    work only, so its duration tracks the host's momentary speed and
    nothing in the repository can change it."""
    t0 = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i * i % 7
    return time.perf_counter() - t0


def calibrate() -> float:
    """The noise guard's loop (~17 ms here), timed before and after
    every workload and reported as ``calib_ms``."""
    return _loop(400_000)


class HostSpeedSampler:
    """Measures the host's speed *while* the code under it runs.

    A real-time interval timer interrupts the main thread every
    :data:`TICK_INTERVAL_S` seconds and the handler times one short
    calibration tick, so a repeat of a second collects some 25 samples
    of the speed it actually ran at — calibrating only before and after
    misses a host that changes speed under the repeat.  ``scale`` turns
    seconds measured under the sampler into seconds at nominal speed.
    Main thread only (signal handlers run there); forked children do
    not inherit the timer.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum: int = 0, frame: object = None) -> None:
        self.samples.append(_loop(TICK_ITERATIONS))

    def __enter__(self) -> "HostSpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # shorter than one interval
            self._tick()

    @property
    def scale(self) -> float:
        return NOMINAL_TICK_S / statistics.mean(self.samples)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: Sequence[float]) -> dict:
    """min/quartiles/max with the sample count stated."""
    q1, q2, q3 = quartiles(values)
    return {
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "median": q2,
        "q3": q3,
        "max": max(values),
    }


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
