"""Machine-speed probe, for timings that hold still on a shared machine.

On a shared 2-vCPU machine a fixed loop runs at one of two speeds, about
1.65x apart, switching every 0.1 to 10 seconds; every raw time in a run
moves with it.  While a job runs, :class:`SpeedSampler` times a short fixed
probe loop from a ``SIGALRM`` handler every ``INTERVAL_S`` seconds.  A job's
reference time is its raw time, less the probes that ran inside it, times
``REF_S`` over the mean probe time around it: the time the job would take on
a machine where the probe takes ``REF_S``.  The benchmark owns the probe
loop, so no change to fireball moves it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

REF_S = 0.0005      # probe time that defines a reference second
INTERVAL_S = 0.05

_A = np.array([0.2, 0.3, 0.8])
_K = np.ones((3, 4))


def probe() -> float:
    """Seconds for a fixed loop with the instruction mix of fireball's
    solver: small numpy operations between interpreted float arithmetic."""
    start = time.perf_counter()
    y, s = np.ones(4), 0.0
    for _ in range(60):
        y = y + 1e-9 * (_A @ _K)
        s += math.sqrt(float(np.mean(y * y)))
    return time.perf_counter() - start


class SpeedSampler:
    """Context manager that probes the machine's speed every ``INTERVAL_S``,
    or only on entry when ``periodic`` is false (the traced run, whose spans
    must not contain probes)."""

    def __init__(self, periodic: bool = True):
        self.periodic = periodic
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self.samples.append(probe())
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    def measure(self, fn):
        """Run ``fn``; return (result, raw seconds, reference seconds).  The
        raw time excludes the probes that ran inside the call."""
        first = len(self.samples)
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start - sum(self.samples[first:])
        around = self.samples[max(first - 1, 0):]
        return result, raw, raw * REF_S / statistics.mean(around)
