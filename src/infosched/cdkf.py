"""Exact filter rollouts along realized Poisson arrival times.

Given an arrival record (time, sensor index) the covariance path of the
continuous-discrete Kalman filter is deterministic: Lyapunov flow between
arrivals, gain update at each arrival.  ``rollout_covariance`` and
``rollout_information`` integrate that path in either coordinate system and
sample it on a uniform evaluation grid.

Conventions: the state at an arrival time is the post-jump value (left-limit
convention for the flow), so a grid node that coincides with an arrival
records the jumped matrix; multiple arrivals at the same instant are
processed in ascending sensor index.

``simulate_realization`` also integrates a state truth path (Euler-Maruyama)
and the filter mean, and is meant for demos and consistency tests, not for
the schedule-design loop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import Instance, Schedule, ValidationError, _generator, _sym
from .riccati import (
    COV,
    INFO,
    Trajectory,
    _stepper,
    flow_cov,
    flow_info,
    jump_cov,
    jump_info,
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_arrivals(path) -> ArrivalRecord:
    with open(path, "r", encoding="utf-8") as fh:
        return ArrivalRecord.from_dict(json.load(fh))


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


def _rollout(instance, arrivals, n_eval, substeps, coordinates, scheme):
    _check_arrivals(instance, arrivals)
    if n_eval < 1:
        raise ValidationError(f"n_eval must be >= 1, got {n_eval}")
    sys = instance.system
    T = sys.T
    grid = np.linspace(0.0, T, n_eval + 1)

    if coordinates == COV:
        X = np.array(sys.P0)
        flow = lambda x, dt, ns: flow_cov(x, sys.A, sys.Q, dt, ns, scheme)
        jump = jump_cov
    else:
        X = _sym(np.linalg.inv(sys.P0))
        flow = lambda x, dt, ns: flow_info(x, sys.A, sys.Q, dt, ns, scheme)
        jump = jump_info

    values = np.empty((n_eval + 1, sys.n, sys.n))
    ev_times, ev_sensors = arrivals.times, arrivals.sensors
    ei = 0
    for prev, t, n_steps, node in walk_stops(grid, ev_times, T / n_eval,
                                             substeps):
        if n_steps:
            X = flow(X, t - prev, n_steps)
        while ei < len(ev_times) and ev_times[ei] == t:
            X = jump(X, instance.sensors[int(ev_sensors[ei])])
            ei += 1
        if node is not None:
            values[node] = X
    return Trajectory(coordinates=coordinates, times=grid, values=values)


def rollout_covariance(
    instance: Instance,
    arrivals: ArrivalRecord,
    n_eval: int = 300,
    substeps: int = 4,
    scheme: str = "rk4",
) -> Trajectory:
    """Deterministic covariance path of the filter for fixed arrivals.

    substeps counts integrator steps per evaluation-grid interval; segments
    cut short by an arrival get proportionally fewer steps (at least one).
    """
    return _rollout(instance, arrivals, n_eval, substeps, COV, scheme)


def rollout_information(
    instance: Instance,
    arrivals: ArrivalRecord,
    n_eval: int = 300,
    substeps: int = 4,
    scheme: str = "rk4",
) -> Trajectory:
    """Same path as rollout_covariance, integrated in information coordinates."""
    return _rollout(instance, arrivals, n_eval, substeps, INFO, scheme)


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


def _psd_factor(Q: np.ndarray) -> np.ndarray:
    # any L with L L^T = Q works; eigen factor tolerates semidefinite Q
    w, V = np.linalg.eigh(Q)
    return V * np.sqrt(np.clip(w, 0.0, None))


def simulate_realization(
    instance: Instance,
    schedule: Schedule | None = None,
    arrivals: ArrivalRecord | None = None,
    seed: int = 0,
    dt_sde: float = 1e-3,
    n_eval: int = 300,
    substeps: int = 4,
    scheme: str = "rk4",
) -> SimulationResult:
    """Simulate truth, measurements, and the filter along one realization.

    When arrivals is None they are sampled from the schedule first (the seed
    then covers both arrivals and noise).  The covariance path is stepped by
    exactly the same flow and jump calls as rollout_covariance, so with fixed
    arrivals the two paths agree bit for bit.
    """
    ss = np.random.SeedSequence(seed)
    arr_ss, noise_ss = ss.spawn(2)
    if arrivals is None:
        if schedule is None:
            raise ValidationError("need a schedule when arrivals are not given")
        from .montecarlo import sample_arrivals

        arrivals = sample_arrivals(schedule, arr_ss)
    _check_arrivals(instance, arrivals)
    if dt_sde <= 0:
        raise ValidationError(f"dt_sde must be positive, got {dt_sde}")

    rng = _generator(noise_ss)
    sys = instance.system
    n = sys.n
    T = sys.T
    grid = np.linspace(0.0, T, n_eval + 1)
    L = _psd_factor(sys.Q)
    chol_R = {j: np.linalg.cholesky(s.R) for j, s in enumerate(instance.sensors)}
    step = _stepper(scheme)
    mean_rhs = lambda m: sys.A @ m

    x = sys.m0 + np.linalg.cholesky(sys.P0) @ rng.standard_normal(n)
    m = np.array(sys.m0, dtype=float)
    P = np.array(sys.P0)

    states = np.empty((n_eval + 1, n))
    means = np.empty((n_eval + 1, n))
    values = np.empty((n_eval + 1, n, n))
    measurements = []
    ev_times, ev_sensors = arrivals.times, arrivals.sensors
    ei = 0
    for prev, t, n_steps, node in walk_stops(grid, ev_times, T / n_eval,
                                             substeps):
        if n_steps:
            seg = t - prev
            # truth: Euler-Maruyama at steps <= dt_sde
            n_em = max(1, math.ceil(seg / dt_sde - 1e-12))
            h = seg / n_em
            sqh = math.sqrt(h)
            for _ in range(n_em):
                x = x + h * (sys.A @ x) + sqh * (L @ rng.standard_normal(n))
            # filter: same flow calls as the covariance rollout
            P = flow_cov(P, sys.A, sys.Q, seg, n_steps, scheme)
            hsub = seg / n_steps
            for _ in range(n_steps):
                m = step(m, hsub, mean_rhs)
        while ei < len(ev_times) and ev_times[ei] == t:
            sensor_idx = int(ev_sensors[ei])
            sensor = instance.sensors[sensor_idx]
            z = sensor.H @ x + chol_R[sensor_idx] @ rng.standard_normal(sensor.p)
            Mj = sensor.H @ P @ sensor.H.T + sensor.R
            K = np.linalg.solve(Mj, sensor.H @ P).T
            m = m + K @ (z - sensor.H @ m)
            P = jump_cov(P, sensor)
            measurements.append((float(t), sensor_idx, z))
            ei += 1
        if node is not None:
            states[node] = x
            means[node] = m
            values[node] = P

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
