"""Exact filter rollouts along realized Poisson arrival times.

Given an arrival record (time, sensor index) the covariance path of the
continuous-discrete Kalman filter is deterministic: Lyapunov flow between
arrivals, gain update at each arrival.  ``rollout_covariance`` steps it
exactly (one Lyapunov map per segment between stops) and samples it on a
uniform evaluation grid; ``rollout_information`` is its nodewise inverse.

Conventions: the state at an arrival time is the post-jump value (left-limit
convention for the flow), so a grid node that coincides with an arrival
records the jumped matrix; multiple arrivals at the same instant are
processed in ascending sensor index.

``simulate_realization`` also samples a state truth path and the filter
mean through the same maps (x -> Phi x + N(0, W), m -> Phi m), and is meant
for demos and consistency tests, not for the schedule-design loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance, Schedule, ValidationError
from .model import _dump_json, _generator, _load_json, _sym
from .riccati import (
    COV,
    PositiveDefinitenessError,
    Trajectory,
    invert_trajectory,
    jump_cov,
    lyapunov_maps,
    require_pd,
    walk_stops,
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

    def to_dict(self) -> dict:
        return {"events": [[float(t), int(j)]
                           for t, j in zip(self.times, self.sensors)]}

    @classmethod
    def from_dict(cls, data: dict) -> "ArrivalRecord":
        try:
            return cls.from_events(data["events"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed arrival payload: {exc!r}") from exc


def save_arrivals(path, record: ArrivalRecord) -> None:
    _dump_json(path, record.to_dict())


def load_arrivals(path) -> ArrivalRecord:
    return ArrivalRecord.from_dict(_load_json(path))


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


def _evaluation_grid(T: float, n_eval: int) -> np.ndarray:
    """The uniform grid of n_eval intervals on [0, T] that rollouts record on."""
    if n_eval < 1:
        raise ValidationError(f"n_eval must be >= 1, got {n_eval}")
    return np.linspace(0.0, T, n_eval + 1)


def _filter_walk(instance, arrivals, grid):
    """Step the exact filter covariance along the stops of grid and arrivals.

    Yields (kind, t, arg, P) in time order: ("flow", t, (Phi, W), P) after
    the exact map of the segment ending at t, ("jump", t, j, P) before the
    gain update of an arrival from sensor j, ("node", t, i, P) at grid node
    i.  Each distinct segment is mapped once, in one lyapunov_maps call: all
    uncut grid steps share one map, a segment cut by an arrival has its own.
    An exact map keeps P positive definite up to roundoff: the walk checks
    the maps' finiteness and each gain update, the callers all nodes at once.
    """
    _check_arrivals(instance, arrivals)
    sys = instance.system
    stops = list(walk_stops(grid, arrivals.times))
    lengths = [grid[1] - grid[0] if a[2] is not None and b[2] is not None
               else b[1] - b[0] for a, b in zip(stops, stops[1:])]
    distinct, index = np.unique(lengths, return_inverse=True)
    phi, w = lyapunov_maps(sys.A, sys.Q, distinct)
    if not (np.isfinite(phi).all() and np.isfinite(w).all()):
        raise PositiveDefinitenessError("non-finite covariance map")
    P = np.array(sys.P0)
    ei = 0
    for i, (prev, t, node) in enumerate(stops):
        if prev is not None:
            k = index[i - 1]
            P = _sym(phi[k] @ P @ phi[k].T + w[k])
            yield "flow", t, (phi[k], w[k]), P
        while ei < arrivals.n_events and arrivals.times[ei] == t:
            j = int(arrivals.sensors[ei])
            yield "jump", t, j, P
            P = jump_cov(P, instance.sensors[j])
            require_pd(P, f"after an arrival from sensor {j} at t={t:g}")
            ei += 1
        if node is not None:
            yield "node", t, node, P


def rollout_covariance(
    instance: Instance,
    arrivals: ArrivalRecord,
    n_eval: int = 300,
) -> Trajectory:
    """Deterministic covariance path of the filter for fixed arrivals."""
    grid = _evaluation_grid(instance.T, n_eval)
    values = np.empty((n_eval + 1, instance.n, instance.n))
    for kind, _, node, P in _filter_walk(instance, arrivals, grid):
        if kind == "node":
            values[node] = P
    require_pd(values, lambda i: f"at node t={grid[i]:g}")
    return Trajectory(coordinates=COV, times=grid, values=values)


def rollout_information(
    instance: Instance,
    arrivals: ArrivalRecord,
    n_eval: int = 300,
) -> Trajectory:
    """Same path as rollout_covariance, in information coordinates."""
    return invert_trajectory(rollout_covariance(instance, arrivals, n_eval))


# ---------------------------------------------------------------------------
# truth + filter simulation (demo / consistency checks)


@dataclass(frozen=True)
class FilterState:
    t: float
    mean: np.ndarray
    covariance: np.ndarray


@dataclass(frozen=True)
class SimulationResult:
    """One joint realization: truth states, filter means, covariance path
    (identical to rollout_covariance for the same arrivals), measurements."""

    times: np.ndarray
    states: np.ndarray            # (n_eval+1, n) truth samples
    means: np.ndarray             # (n_eval+1, n) filter means
    covariances: Trajectory
    measurements: tuple           # ((t, sensor, z), ...)

    def filter_states(self) -> list[FilterState]:
        return [
            FilterState(t=float(t), mean=m, covariance=P)
            for t, m, P in zip(self.times, self.means, self.covariances.values)
        ]


def simulate_realization(
    instance: Instance,
    schedule: Schedule | None = None,
    arrivals: ArrivalRecord | None = None,
    seed: int = 0,
    n_eval: int = 300,
) -> SimulationResult:
    """Simulate truth, measurements, and the filter along one realization.

    When arrivals is None they are sampled from the schedule first (the seed
    then covers both arrivals and noise).  The truth is sampled exactly at
    the stops: x -> Phi x + w with w ~ N(0, W) for the segment's map.  The
    covariance path comes from the same walk as rollout_covariance, so with
    fixed arrivals the two paths agree bit for bit.
    """
    ss = np.random.SeedSequence(seed)
    arr_ss, noise_ss = ss.spawn(2)
    if arrivals is None:
        if schedule is None:
            raise ValidationError("need a schedule when arrivals are not given")
        from .montecarlo import sample_arrivals

        arrivals = sample_arrivals(schedule, arr_ss)

    rng = _generator(noise_ss)
    sys = instance.system
    n = sys.n
    grid = _evaluation_grid(sys.T, n_eval)
    chol_R = {j: np.linalg.cholesky(s.R) for j, s in enumerate(instance.sensors)}

    x = sys.m0 + np.linalg.cholesky(sys.P0) @ rng.standard_normal(n)
    m = np.array(sys.m0, dtype=float)

    states = np.empty((n_eval + 1, n))
    means = np.empty((n_eval + 1, n))
    values = np.empty((n_eval + 1, n, n))
    measurements = []
    for kind, t, arg, P in _filter_walk(instance, arrivals, grid):
        if kind == "flow":
            Phi, W = arg
            lam, V = np.linalg.eigh(W)   # an eigen factor: W may be singular
            x = Phi @ x + V @ (np.sqrt(lam.clip(0.0)) * rng.standard_normal(n))
            m = Phi @ m
        elif kind == "jump":
            sensor = instance.sensors[arg]
            z = sensor.H @ x + chol_R[arg] @ rng.standard_normal(sensor.p)
            Mj = sensor.H @ P @ sensor.H.T + sensor.R
            K = np.linalg.solve(Mj, sensor.H @ P).T
            m = m + K @ (z - sensor.H @ m)
            measurements.append((float(t), arg, z))
        else:
            states[arg] = x
            means[arg] = m
            values[arg] = P

    require_pd(values, lambda i: f"at node t={grid[i]:g}")
    traj = Trajectory(coordinates=COV, times=grid, values=values)
    return SimulationResult(
        times=grid,
        states=states,
        means=means,
        covariances=traj,
        measurements=tuple(measurements),
    )


__all__ = [
    "ArrivalRecord",
    "FilterState",
    "SimulationResult",
    "load_arrivals",
    "rollout_covariance",
    "rollout_information",
    "save_arrivals",
    "simulate_realization",
]
