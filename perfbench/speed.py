"""Machine-speed sampling, so timings survive a host whose speed drifts.

On a shared host the same single-threaded work can take up to twice as long
from one ten-second stretch to the next (a fixed 5x5 numpy kernel measured
36 to 62 ms per 2 s window, with the process's CPU time tracking its wall
time, so the loss is not steal time).  While a cycle runs, ``SpeedSampler``
times a small fixed kernel from a SIGALRM handler every ``INTERVAL`` seconds,
in the main thread, on the same CPU and under the same contention as the
work.  ``nominal`` then rescales wall time to the speed at which the kernel
takes ``NOMINAL_PROBE_S``:

    nominal = (wall - probe time) * NOMINAL_PROBE_S * mean(1 / probe duration)

i.e. each interval's wall time is weighted by the speed measured in it.  On
a machine that runs the kernel in ``NOMINAL_PROBE_S`` the two agree.  The
probes take about 2% of a cycle and run identically at every commit.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.05           # seconds between probes
NOMINAL_PROBE_S = 1e-3    # probe duration that defines the nominal speed

_EYE = np.eye(5)
_X = 3.0 * _EYE + 0.1
_A = 0.3 * np.random.default_rng(0).standard_normal((5, 5))


def _rhs(Y):
    YA = Y @ _A
    return -(YA + YA.T) - Y @ Y + 0.5 * _EYE


def probe() -> float:
    """Seconds taken by a fixed kernel with the operation mix of the
    package's inner loops: small products, factorizations and solves, and
    RK4 steps of a Riccati right-hand side through Python calls.  It is the
    benchmark's own copy, so no change to the package can change it."""
    t0 = time.perf_counter()
    for _ in range(25):
        y = _X @ _X
        np.linalg.cholesky(y - 0.5 * _EYE)
        np.linalg.solve(y, _X)
    Y, h = 2.0 * _EYE, 0.01
    for _ in range(8):
        k1 = _rhs(Y)
        k2 = _rhs(Y + 0.5 * h * k1)
        k3 = _rhs(Y + 0.5 * h * k2)
        k4 = _rhs(Y + h * k3)
        Y = Y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        Y = 0.5 * (Y + Y.T)
        np.linalg.cholesky(Y - 1e-12 * np.trace(Y) / 5 * _EYE)
    return time.perf_counter() - t0


class SpeedSampler:
    """Probe the machine every ``interval`` seconds while the context is open."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _on_alarm(self, signum, frame):
        self.starts.append(time.perf_counter())
        self.durations.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float:
        """Nominal seconds per wall second (at least one probe is taken)."""
        d = np.asarray(self.durations) if self.durations else np.array([probe()])
        return NOMINAL_PROBE_S * float(np.mean(1.0 / d))

    def probe_time_before(self, t: np.ndarray) -> np.ndarray:
        """Total probe time that ended at or before each time in t."""
        ends = np.asarray(self.starts) + np.asarray(self.durations)
        done = np.concatenate([[0.0], np.cumsum(self.durations)])
        return done[np.searchsorted(ends, t, side="right")]

    def nominal(self, t0: float, t1: float) -> float:
        """Nominal seconds of the work between wall times t0 and t1."""
        probes = np.diff(self.probe_time_before(np.array([t0, t1])))[0]
        return (t1 - t0 - probes) * self.factor()
