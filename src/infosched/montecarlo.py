"""Monte Carlo evaluation of a schedule against the exact filter.

Arrival sampling uses the count-then-order-statistics construction: per
sensor and per control interval, a Poisson count at mean rate*delta, then
that many uniform times in the interval.  Superposing sensors and sorting by
(time, sensor index) yields the merged record the rollouts consume.

Seeding policy: run r of a study with master seed s draws from the Philox
generator keyed by SeedSequence(entropy=s, spawn_key=(r,)).  Within a run,
draws happen sensor-major then interval-major.  All runs of an estimate are
stepped together in one batched filter walk (cdkf), and each run's cost is
reduced as the walk records its nodes, with the node weights
(riccati.node_weights) behind every other objective too.  Because every run
owns its stream and its path does not depend on the rest of the batch, a
run's cost is bit-identical whatever batch it is stepped in, and estimates
reduce the costs in run order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cdkf import ArrivalRecord, _filter_walk
from .model import Instance, Schedule, ValidationError
from .model import _check_pair, _dump_json, _generator, _seed_sequence, _sym
from .riccati import COV, INFO, Trajectory, node_weights, time_grid


def run_seed(master_seed: int, run_index: int) -> np.random.SeedSequence:
    """Child seed of one Monte Carlo run; documented so studies can be sharded."""
    return _seed_sequence(master_seed, spawn_key=(run_index,))


def sample_arrivals(schedule: Schedule, seed) -> ArrivalRecord:
    """One realization of the arrival process of every sensor.

    seed is an int or a SeedSequence.  Draw order is fixed (sensor-major,
    interval-major: one Poisson count then that many uniforms), so equal
    seeds give equal records.
    """
    rng = _generator(seed)
    poisson, uniform = rng.poisson, rng.random
    delta = schedule.delta
    rates = schedule.rates.T
    # the positive rates in (sensor, interval) order: a zero rate draws nothing
    js, ks = np.nonzero(rates > 0.0)
    counts = []
    draws = [np.empty(0)]
    for mean in (rates[js, ks] * delta).tolist():
        count = poisson(mean)
        counts.append(count)
        if count:
            draws.append(uniform(count))
    # each draw lands in its interval as start + delta * u
    times = np.repeat(ks * delta, counts) + delta * np.concatenate(draws)
    return ArrivalRecord(times=times, sensors=np.repeat(js, counts))


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


def _sample_runs(instance, schedule, n_runs, seed):
    """The arrival records of runs 0..n_runs-1, each from its own stream."""
    _check_pair(instance, schedule)
    if n_runs < 1:
        raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
    return [sample_arrivals(schedule, run_seed(seed, r)) for r in range(n_runs)]


def _run_costs(instance, records, grid, paths=None):
    """Pathwise costs of a batch of runs, stepped together in one filter walk.

    Each run's cost is the objective of its path, reduced as the walk
    yields each round's nodes on grid: <W_i, P_i> added by np.add.at, so
    each run's in node-time order, W_i the node's riccati.node_weights
    entry.  The nodes also go to paths[r, i] when paths is given.
    """
    weights = node_weights(grid, instance.weights)
    costs = np.zeros(len(records))
    for runs, nodes, P in _filter_walk(instance, records, grid):
        np.add.at(costs, runs,
                  (weights[nodes] * P).reshape(len(runs), -1).sum(axis=1))
        if paths is not None:
            paths[runs, nodes] = P
    return costs


def _mean_std(means, spreads):
    """Mean over the runs (the first axis) of means, and the sample standard
    deviation over the runs of spreads.  When every run of means is the
    same (the zero schedule), the mean is that run and the spread exactly
    zero: averaging equal values leaves roundoff, as fl(n a) / n != a."""
    if np.all(means == means[0]):
        return means[0].copy(), np.zeros(spreads.shape[1:])
    return means.mean(axis=0), spreads.std(axis=0, ddof=1)


def _estimate(costs: np.ndarray) -> McEstimate:
    mean, std = _mean_std(costs, costs)
    return McEstimate(
        mean=float(mean),
        std=float(std),
        stderr=float(std) / np.sqrt(len(costs)),
        n_runs=len(costs),
        per_run_costs=costs,
    )


def mc_objective(
    instance: Instance,
    schedule: Schedule,
    n_runs: int = 100,
    n_eval: int = 300,
    seed: int = 0,
) -> McEstimate:
    """Estimate the expected pathwise objective of a schedule.

    Per run: sample arrivals, step the exact covariance recursion and sample
    it on the evaluation grid, apply the trapezoid objective.  All runs are
    stepped together and per_run_costs comes back in run order, so the
    reduction is deterministic.  Paths are not kept.
    """
    grid = time_grid(instance.T, n_eval)
    records = _sample_runs(instance, schedule, n_runs, seed)
    return _estimate(_run_costs(instance, records, grid))


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
    objective: McEstimate


def mc_mean_trajectories(
    instance: Instance,
    schedule: Schedule,
    n_runs: int = 100,
    n_eval: int = 300,
    seed: int = 0,
) -> McTrajectories:
    """Sample means of P(t) and Y(t) = P(t)^{-1} over arrival realizations.

    Runs, seeding and costs are those of mc_objective; every covariance path
    is kept for the nodewise statistics.
    """
    times = time_grid(instance.T, n_eval)
    records = _sample_runs(instance, schedule, n_runs, seed)
    n = instance.n
    p_paths = np.empty((n_runs, n_eval + 1, n, n))
    costs = _run_costs(instance, records, times, p_paths)
    y_paths = _sym(np.linalg.inv(p_paths))
    p_mean, p_std = _mean_std(p_paths, np.trace(p_paths, axis1=2, axis2=3))
    y_mean, y_std = _mean_std(y_paths, np.trace(y_paths, axis1=2, axis2=3))
    scale = np.sqrt(n_runs)
    return McTrajectories(
        p_mean=Trajectory(coordinates=COV, times=times, values=p_mean),
        y_mean=Trajectory(coordinates=INFO, times=times, values=y_mean),
        p_trace_stderr=p_std / scale,
        y_trace_stderr=y_std / scale,
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
