"""Exact filter rollouts along realized Poisson arrival times.

Given an arrival record (time, sensor index) the covariance path of the
continuous-discrete Kalman filter is deterministic: Lyapunov flow between
arrivals, gain update at each arrival.  One walk steps it exactly (one
Lyapunov map per segment between stops, all from one map family) for a
whole batch of records at once: the Monte Carlo runs of ``montecarlo`` step
together, and ``rollout_covariance`` is the batch of one record, sampled on
a uniform evaluation grid.  A run's path does not depend on what else the
batch holds, bit for bit.  ``rollout_information`` is its nodewise inverse.

Conventions: the state at an arrival time is the post-jump value (left-limit
convention for the flow), so a grid node that coincides with an arrival
records the jumped matrix; multiple arrivals at the same instant are
processed in ascending sensor index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance, ValidationError, _sym
from .riccati import (
    COV,
    Trajectory,
    invert_trajectory,
    lyapunov_maps,
    require_pd,
    stacked_gains,
    time_grid,
)


@dataclass(frozen=True)
class ArrivalRecord:
    """Realized measurement arrivals: times[i] from sensor sensors[i].

    Events are stored sorted by (time, sensor index), which is also the
    processing order.
    """

    times: np.ndarray
    sensors: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        sensors = np.asarray(self.sensors, dtype=np.int64).ravel()
        if times.shape != sensors.shape:
            raise ValidationError(
                f"times and sensors must align, got {times.shape} vs {sensors.shape}"
            )
        if times.size and not np.all(np.isfinite(times)):
            raise ValidationError("arrival times contain non-finite entries")
        if np.any(sensors < 0):
            raise ValidationError("sensor indices must be nonnegative")
        order = np.lexsort((sensors, times))
        times = times[order]
        sensors = sensors[order]
        times.setflags(write=False)
        sensors.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sensors", sensors)

    @property
    def n_events(self) -> int:
        return int(self.times.size)

    @classmethod
    def from_events(cls, events) -> "ArrivalRecord":
        times = [t for t, _ in events]
        sensors = [j for _, j in events]
        return cls(times=np.asarray(times, dtype=float),
                   sensors=np.asarray(sensors, dtype=np.int64))


def _check_arrivals(instance: Instance, arrivals: ArrivalRecord) -> None:
    if arrivals.n_events == 0:
        return
    T = instance.T
    if arrivals.times[0] < 0.0 or arrivals.times[-1] > T:
        raise ValidationError(
            f"arrival times must lie in [0, {T:g}], got range "
            f"[{arrivals.times[0]:g}, {arrivals.times[-1]:g}]"
        )
    if int(arrivals.sensors.max()) >= instance.M:
        raise ValidationError(
            f"arrival references sensor {int(arrivals.sensors.max())}, "
            f"instance has {instance.M}"
        )


# the segment a step flows over: none (a coincident event, the first step or
# padding), an uncut grid step (one map shared by all), or a cut (its own map)
IDLE, GRID_STEP, CUT = 0, 1, 2


def _steps(records, grid):
    """The step table of a batch of arrival records on a recording grid.

    A run's steps are its arrivals and the grid nodes merged in time order,
    an arrival before the node at its instant; a step flows over the
    segment from the run's previous step, applies its arrival, then records
    its node.  Returns (L, R) tables for R runs: the time, the arriving
    sensor and the recorded node (-1 for none), and the kind of the segment
    that ends at the step.  A run with fewer steps than the longest is
    padded at the end with IDLE steps at T, which do nothing.
    """
    n_nodes = len(grid)
    shape = (n_nodes + max(rec.n_events for rec in records), len(records))
    time = np.full(shape, grid[-1])
    sensor = np.full(shape, -1, dtype=np.int32)
    node = np.full(shape, -1, dtype=np.int32)
    on_grid = np.zeros(shape, dtype=bool)
    nodes = np.arange(n_nodes)
    for r, rec in enumerate(records):
        events = np.arange(rec.n_events)
        at_node = nodes + np.searchsorted(rec.times, grid, side="right")
        at_event = events + np.searchsorted(grid, rec.times, side="left")
        time[at_node, r], node[at_node, r], on_grid[at_node, r] = grid, nodes, True
        time[at_event, r], sensor[at_event, r] = rec.times, rec.sensors
        on_grid[at_event, r] = np.isin(rec.times, grid)
    kind = np.full(shape, CUT, dtype=np.int8)
    kind[1:][on_grid[1:] & on_grid[:-1]] = GRID_STEP
    kind[1:][time[1:] == time[:-1]] = IDLE
    kind[0] = IDLE
    return time, sensor, node, kind


def _filter_walk(instance, records, grid):
    """Step the exact filter covariances of a batch of runs together.

    records holds one arrival record per run; every run keeps its own stops
    (see _steps) and all runs take step s at once.  Per step: one batched
    P <- Phi P Phi^T + W with each run's map, then one gain update over the
    runs with an arrival there (riccati.stacked_gains of the arriving
    sensors' rows of the instance's padded stacks, one batched call), then
    the nodes.  Every map comes from one riccati.lyapunov_maps family,
    built once per walk for durations up to the longest grid interval: the
    uncut grid step has one map shared by all runs, and the cut segments
    of a step are mapped together, so only one step's maps are alive at a
    time.

    Yields (runs, nodes, P) at each step where runs record nodes, P the
    (R, n, n) stack of all runs (live: copy what you keep).  Each run's
    path depends on its own record alone, bit for bit, whatever else the
    batch holds.  An exact map keeps P positive definite up to roundoff: the
    family checks that its maps are finite, and the walk checks the runs
    that jumped and the recorded nodes, one batch per step.
    """
    for rec in records:
        _check_arrivals(instance, rec)
    sys = instance.system
    n, R = sys.n, len(records)
    time, sensor, node, kind = _steps(records, grid)
    # no segment outlasts the longest grid interval: rounding is monotone
    family = lyapunov_maps(sys.A, sys.Q, np.diff(grid).max())
    phi_h, w_h = family([grid[1] - grid[0]])
    fixed_phi = np.stack([np.eye(n), phi_h[0]])
    fixed_w = np.stack([np.zeros((n, n)), w_h[0]])
    P = np.repeat(np.asarray(sys.P0, dtype=float)[None], R, axis=0)
    for s in range(len(kind)):
        shared = np.minimum(kind[s], GRID_STEP)
        phi, w = fixed_phi[shared], fixed_w[shared]
        cut = np.flatnonzero(kind[s] == CUT)
        if cut.size:
            lengths = time[s, cut] - time[s - 1, cut]
            phi[cut], w[cut] = family(lengths)
        P = _sym(phi @ P @ phi.swapaxes(1, 2) + w)
        runs = np.flatnonzero(sensor[s] >= 0)
        if runs.size:
            js, ts = sensor[s, runs], time[s, runs]
            before = P[runs]
            HP, sol = stacked_gains(before, instance.H[js], instance.R[js])
            P[runs] = _sym(before - _sym(HP.swapaxes(1, 2) @ sol))
            require_pd(P[runs], lambda i: f"after an arrival from sensor "
                       f"{js[i]} at t={ts[i]:g} in run {runs[i]}")
        runs = np.flatnonzero(node[s] >= 0)
        if runs.size:
            nodes = node[s, runs]
            require_pd(P[runs], lambda i: f"at node t={grid[nodes[i]]:g} "
                       f"in run {runs[i]}")
            yield runs, nodes, P


def rollout_covariance(
    instance: Instance,
    arrivals: ArrivalRecord,
    n_eval: int = 300,
) -> Trajectory:
    """Deterministic covariance path of the filter for fixed arrivals."""
    grid = time_grid(instance.T, n_eval)
    values = np.empty((n_eval + 1, instance.n, instance.n))
    for runs, nodes, P in _filter_walk(instance, [arrivals], grid):
        values[nodes] = P[runs]
    # the walk checked every node it yielded
    return Trajectory._checked(COV, grid, values)


def rollout_information(
    instance: Instance,
    arrivals: ArrivalRecord,
    n_eval: int = 300,
) -> Trajectory:
    """Same path as rollout_covariance, in information coordinates."""
    return invert_trajectory(rollout_covariance(instance, arrivals, n_eval))



__all__ = [
    "ArrivalRecord",
    "rollout_covariance",
    "rollout_information",
]
