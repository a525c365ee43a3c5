"""Monte Carlo evaluation of a schedule against the exact filter.

Arrival sampling uses the count-then-order-statistics construction: per
sensor and per control interval, a Poisson count at mean rate*delta, then
that many uniform times in the interval.  Superposing sensors and sorting by
(time, sensor index) yields the merged record the rollouts consume.

Seeding policy: run r of a study with master seed s draws from the Philox
generator keyed by SeedSequence(entropy=s, spawn_key=(r,)).  Within a run,
draws happen sensor-major then interval-major.  Because every run owns its
stream and per-run results are reduced in run order, estimates are
bit-identical for any parallelism degree.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cdkf import ArrivalRecord, _evaluation_grid, rollout_covariance
from .model import Instance, Schedule, ValidationError
from .model import _dump_json, _generator, _sym
from .riccati import COV, INFO, Trajectory, pathwise_cost


def run_seed(master_seed: int, run_index: int) -> np.random.SeedSequence:
    """Child seed of one Monte Carlo run; documented so studies can be sharded."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(run_index,))


def sample_arrivals(schedule: Schedule, seed) -> ArrivalRecord:
    """One realization of the arrival process of every sensor.

    seed is an int or a SeedSequence.  Draw order is fixed (sensor-major,
    interval-major: one Poisson count then that many uniforms), so equal
    seeds give equal records.
    """
    rng = _generator(seed)
    delta = schedule.delta
    times = []
    sensors = []
    for j in range(schedule.M):
        for k in range(schedule.N):
            lam = schedule.rates[k, j]
            count = int(rng.poisson(lam * delta)) if lam > 0.0 else 0
            if count:
                t = k * delta + delta * rng.random(count)
                times.append(t)
                sensors.append(np.full(count, j, dtype=np.int64))
    if times:
        times = np.concatenate(times)
        sensors = np.concatenate(sensors)
    else:
        times = np.empty(0)
        sensors = np.empty(0, dtype=np.int64)
    return ArrivalRecord(times=times, sensors=sensors)


@dataclass(frozen=True)
class McEstimate:
    """Sample statistics of the pathwise objective over independent runs."""

    mean: float
    std: float
    stderr: float
    n_runs: int
    per_run_costs: np.ndarray

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std": self.std,
            "stderr": self.stderr,
            "n_runs": self.n_runs,
            "costs": [float(c) for c in self.per_run_costs],
        }


def save_mc_report(path, estimate: McEstimate) -> None:
    _dump_json(path, estimate.to_dict())


def _one_run(instance, schedule, n_eval, seed, keep_path, r):
    # cost of run r, and its covariance path when keep_path is set
    arrivals = sample_arrivals(schedule, run_seed(seed, r))
    traj = rollout_covariance(instance, arrivals, n_eval)
    cost = pathwise_cost(traj, instance.weights, instance.T)
    return (cost, traj.values) if keep_path else cost


def _runs(instance, schedule, n_runs, n_eval, seed, n_jobs, keep_path):
    """Per-run results in run order, streamed; a pool when n_jobs > 1."""
    one_run = partial(_one_run, instance, schedule, n_eval, seed, keep_path)
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            yield from pool.map(one_run, range(n_runs),
                                chunksize=max(1, n_runs // (4 * n_jobs)))
    else:
        yield from map(one_run, range(n_runs))


def _estimate(costs: np.ndarray) -> McEstimate:
    n_runs = len(costs)
    mean = float(np.mean(costs))
    # identical costs (zero schedule) must report exactly zero spread; np.std
    # of equal values returns ulp noise because fl(n*a)/n != a
    if n_runs > 1 and not np.all(costs == costs[0]):
        std = float(np.std(costs, ddof=1))
    else:
        std = 0.0
    return McEstimate(
        mean=mean,
        std=std,
        stderr=std / np.sqrt(n_runs),
        n_runs=n_runs,
        per_run_costs=costs,
    )


def mc_objective(
    instance: Instance,
    schedule: Schedule,
    n_runs: int = 100,
    n_eval: int = 300,
    seed: int = 0,
    n_jobs: int = 1,
) -> McEstimate:
    """Estimate the expected pathwise objective of a schedule.

    Per run: sample arrivals, step the exact covariance recursion and sample
    it on the evaluation grid, apply the trapezoid objective.  per_run_costs
    comes back in run order regardless of n_jobs, so the reduction is
    deterministic.  Paths are not kept.
    """
    if n_runs < 1:
        raise ValidationError(f"need n_runs >= 1, got {n_runs}")
    runs = _runs(instance, schedule, n_runs, n_eval, seed, n_jobs,
                 keep_path=False)
    return _estimate(np.fromiter(runs, dtype=float, count=n_runs))


@dataclass(frozen=True)
class McTrajectories:
    """Nodewise sample means of covariance and information paths.

    Both means come from the same arrival realizations (the information path
    of a run is the nodewise inverse of its covariance path).  The stderr
    arrays are the per-node standard errors of the matrix trace, a scalar
    proxy for the statistical uncertainty scale of each node.  objective is
    the pathwise-cost estimate of the same runs, equal to mc_objective with
    the same arguments.
    """

    p_mean: Trajectory
    y_mean: Trajectory
    p_trace_stderr: np.ndarray
    y_trace_stderr: np.ndarray
    n_runs: int
    objective: McEstimate


def mc_mean_trajectories(
    instance: Instance,
    schedule: Schedule,
    n_runs: int = 100,
    n_eval: int = 300,
    seed: int = 0,
    n_jobs: int = 1,
) -> McTrajectories:
    """Sample means of P(t) and Y(t) = P(t)^{-1} over arrival realizations.

    Runs, seeding and the n_jobs contract are those of mc_objective; every
    covariance path is kept for the nodewise statistics.
    """
    if n_runs < 1:
        raise ValidationError(f"need n_runs >= 1, got {n_runs}")
    times = _evaluation_grid(instance.T, n_eval)
    n = instance.n
    costs = np.empty(n_runs)
    p_paths = np.empty((n_runs, n_eval + 1, n, n))
    runs = _runs(instance, schedule, n_runs, n_eval, seed, n_jobs,
                 keep_path=True)
    for r, (cost, path) in enumerate(runs):
        costs[r] = cost
        p_paths[r] = path
    y_paths = _sym(np.linalg.inv(p_paths))

    if np.all(p_paths == p_paths[0]):
        # all realizations identical (e.g. zero schedule): averaging would
        # only add roundoff
        p_mean = p_paths[0].copy()
        y_mean = y_paths[0].copy()
    else:
        p_mean = p_paths.mean(axis=0)
        y_mean = y_paths.mean(axis=0)
    p_traces = np.trace(p_paths, axis1=2, axis2=3)
    y_traces = np.trace(y_paths, axis1=2, axis2=3)
    scale = np.sqrt(n_runs)
    if n_runs > 1 and not np.all(p_paths == p_paths[0]):
        p_se = p_traces.std(axis=0, ddof=1) / scale
        y_se = y_traces.std(axis=0, ddof=1) / scale
    else:
        p_se = np.zeros(n_eval + 1)
        y_se = np.zeros(n_eval + 1)
    return McTrajectories(
        p_mean=Trajectory(coordinates=COV, times=times, values=p_mean),
        y_mean=Trajectory(coordinates=INFO, times=times, values=y_mean),
        p_trace_stderr=p_se,
        y_trace_stderr=y_se,
        n_runs=n_runs,
        objective=_estimate(costs),
    )


__all__ = [
    "McEstimate",
    "McTrajectories",
    "mc_mean_trajectories",
    "mc_objective",
    "run_seed",
    "sample_arrivals",
    "save_mc_report",
]
