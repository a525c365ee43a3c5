"""Exact filter rollouts along realized Poisson arrival times.

Given an arrival record (time, sensor index) the covariance path of the
continuous-discrete Kalman filter is deterministic: Lyapunov flow between
arrivals, gain update at each arrival.  One walk steps it exactly (one
Lyapunov map per segment between stops, all from one map family) for a
whole batch of records at once: the Monte Carlo runs of ``montecarlo`` step
together, and ``rollout_covariance`` is the batch of one record, sampled on
a uniform evaluation grid, in blocks of steps of which only the covariances
are carried step by step.  A run's path does not depend on the rest of the
batch, bit for bit.  ``rollout_information`` is its nodewise inverse.

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
WALK_BLOCK = 4  # steps per block of the walk, whose maps are alive at once


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
    (see _steps) and all runs take step s at once, in blocks of WALK_BLOCK
    steps.  A block's maps come first, from one riccati.lyapunov_maps
    family per walk for durations up to the longest grid interval: the
    identity or the uncut grid step's map, shared by all runs, and all cut
    segments of the block in one family call.  Per step only the carry
    runs: P <- Phi P Phi^T + W with each run's map, then one gain update of
    the runs with an arrival there (riccati.stacked_gains of the arriving
    sensors' rows of the instance's padded stacks).

    Yields (runs, nodes, P) once per block that records nodes, in walk
    order, P the recorded (k, n, n) matrices themselves.  Each run's path
    depends on its own record alone, bit for bit.  An exact map keeps P
    positive definite up to roundoff: the family checks its maps are
    finite, and one require_pd per block takes each step's jumped runs,
    then its nodes, so it names the loss a step-by-step walk meets first;
    an exception in a block's carry runs that check first.
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

    def check(checked):
        def where(i):
            s, r, at_node = [(s, r, at_node) for s, runs, at_node, _ in checked
                             for r in runs][i]
            if at_node:
                return f"at node t={grid[node[s, r]]:g} in run {r}"
            return (f"after an arrival from sensor {sensor[s, r]} at "
                    f"t={time[s, r]:g} in run {r}")
        if checked:
            require_pd(np.concatenate([m for *_, m in checked]), where)

    for start in range(0, len(kind), WALK_BLOCK):
        block = kind[start:start + WALK_BLOCK]
        shared = np.minimum(block, GRID_STEP)
        phi, w = fixed_phi[shared], fixed_w[shared]
        b, cut = np.nonzero(block == CUT)
        if cut.size:
            s = start + b
            phi[b, cut], w[b, cut] = family(time[s, cut] - time[s - 1, cut])
        checked = []  # (step, runs, at a node, their P) in walk order
        try:
            for b in range(len(block)):
                s = start + b
                P = _sym(phi[b] @ P @ phi[b].swapaxes(1, 2) + w[b])
                runs = np.flatnonzero(sensor[s] >= 0)
                if runs.size:
                    before, js = P[runs], sensor[s, runs]
                    HP, sol = stacked_gains(before, instance.H[js],
                                            instance.R[js])
                    after = _sym(before - _sym(HP.swapaxes(1, 2) @ sol))
                    P[runs] = after
                    checked.append((s, runs, False, after))
                runs = np.flatnonzero(node[s] >= 0)
                if runs.size:
                    checked.append((s, runs, True, P[runs]))
        except Exception:
            # a loss of positive definiteness before the failure comes first
            check(checked)
            raise
        check(checked)
        nodes = [(r, node[s, r], m) for s, r, at_node, m in checked if at_node]
        if nodes:
            yield tuple(map(np.concatenate, zip(*nodes)))


def rollout_covariance(
    instance: Instance,
    arrivals: ArrivalRecord,
    n_eval: int = 300,
) -> Trajectory:
    """Deterministic covariance path of the filter for fixed arrivals."""
    grid = time_grid(instance.T, n_eval)
    values = np.empty((n_eval + 1, instance.n, instance.n))
    for _, nodes, P in _filter_walk(instance, [arrivals], grid):
        values[nodes] = P
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
