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
(riccati.node_weights) behind every other objective too; the walk forms
only the weighted nodes and each gap's last.  Because every run owns its
stream and its path does not depend on the rest of the batch, a run's cost
is bit-identical whatever batch it is stepped in, and estimates reduce the
costs in run order; a failing batch names its lowest failing run's loss,
as that run walked alone reports it (cdkf._lowest_failure).  The nodewise
moments of the paths are reduced a window of nodes at a time, every run's
nodes formed again from its gaps' first nodes, so no stack of paths is
held: memory grows with runs as a trace table and the gaps' first nodes,
one matrix per gap with nodes, which is never more than the path stack and
far less when arrivals are sparser than nodes.  An estimate's report is
McEstimate.to_dict, which the caller writes (cli, by model._dump_json).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cdkf import ArrivalRecord, _filter_walk, _Gaps
from .model import Instance, Schedule
from .model import _check_pair, _count, _generator, _seed_sequence, _sym
from .riccati import (
    COV,
    INFO,
    Trajectory,
    node_weights,
    read_nodes,
    require_finite,
    require_pd,
    time_grid,
)


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


def _sample_runs(instance, schedule, n_runs, seed):
    """The arrival records of runs 0..n_runs-1, each from its own stream."""
    _check_pair(instance, schedule)
    return [sample_arrivals(schedule, run_seed(seed, r))
            for r in range(_count(n_runs, "n_runs"))]


def _run_costs(instance, records, grid, gaps=None):
    """Pathwise costs of a batch of runs, stepped together in one filter walk.

    Each run's cost is the objective of its path, reduced as the walk
    yields each round's nodes on grid: <W_i, P_i> added by np.add.at over
    the weighted nodes (riccati.read_nodes), so each run's in node-time
    order, W_i the node's riccati.node_weights entry.  The walk forms only
    the weighted nodes and each gap's last (with W_T alone, one node per
    gap), and the costs are the full walk's, bit for bit.  gaps, a
    cdkf._Gaps, keeps each gap's first node, from which every node can be
    formed again.  A cost that overflows is a PositiveDefinitenessError
    naming the first such run; a failing walk names its lowest failing
    run's loss, as that run walked alone reports it (cdkf._filter_walk).
    """
    weights = node_weights(grid, instance.weights)
    read = read_nodes(weights)
    every, n2 = read.all(), instance.n**2
    costs = np.zeros(len(records))
    for runs, nodes, P in _filter_walk(instance, records, grid,
                                       None if every else read, gaps):
        if not every:
            on = read[nodes]
            runs, nodes, P = runs[on], nodes[on], P[on]
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            np.add.at(costs, runs, (weights[nodes] * P).reshape(
                len(runs), n2).sum(axis=1))
    run = int(np.argmin(np.isfinite(costs)))   # the first to overflow
    return require_finite(costs, f"Monte Carlo cost of run {run}")


class _Moments:
    """Mean over the runs of x, the cost vector or the (runs, nodes, n, n)
    paths, and the sample standard deviation over the runs of each cost or
    of each node's trace, taken a window of nodes at a time (add).  When
    every run equals run 0 (the zero schedule), the mean is run 0 and the
    spread exactly zero: averaging equal values leaves roundoff, fl(n a) / n
    != a.  Where the squared deviations overflow on finite values, they are
    taken in units of the largest deviation; every other spread keeps the
    floats of np.std.  A mean or spread that overflows is a
    PositiveDefinitenessError."""

    def __init__(self, shape):
        """shape, that of x: (runs,) or (runs, nodes, n, n)."""
        self.mean, self.run0 = np.empty(shape[1:]), np.empty(shape[1:])
        self.s = np.empty(shape[:2])    # the costs, or the node traces
        self.same = True

    def add(self, at, x):
        """The runs' x at nodes at (a slice; ... for the costs)."""
        with np.errstate(over="ignore", invalid="ignore"):   # see result
            self.s[:, at] = np.trace(x, axis1=2, axis2=3) if x.ndim > 1 else x
            self.mean[at] = x.mean(axis=0)
        if self.same:      # run 0 is needed only while every run equals it
            self.run0[at] = x[0]
            self.same = bool(np.all(x == x[0]))

    def result(self, name):
        s = self.s
        with np.errstate(over="ignore", invalid="ignore"):   # checked below
            if self.same:
                mean, std = self.run0, np.zeros(s.shape[1:])
            else:
                mean, std = self.mean, s.std(axis=0, ddof=1)
                if not np.isfinite(std).all():
                    d = s - s.mean(axis=0)
                    c = np.abs(d).max(axis=0)
                    std = np.where(np.isfinite(std), std, c * np.sqrt(
                        ((d / c) ** 2).sum(axis=0) / (len(s) - 1)))
        return (require_finite(mean, f"Monte Carlo mean of the {name}"),
                require_finite(std, f"Monte Carlo spread of the {name}"))


def _estimate(costs: np.ndarray) -> McEstimate:
    moments = _Moments(costs.shape)
    moments.add(..., costs)
    mean, std = moments.result("cost")
    return McEstimate(
        mean=float(mean),
        std=float(std),
        stderr=float(std) / math.sqrt(len(costs)),
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
    reduction is deterministic.  Paths are not kept, so the walk forms only
    the nodes the objective weights and each gap's last: with W_T alone, one
    node per gap between arrivals.
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

    Runs, seeding and costs are those of mc_objective, from the same walk,
    which keeps each gap's first node (cdkf._Gaps).  The nodes are formed
    again from those a window at a time, every run's at once, and each
    window of covariances and of their inverses is added to the nodewise
    run means and (runs, n_eval + 1) trace tables, then dropped: no stack
    of paths is held, and the means are those of the stacks, bit for bit.
    """
    times = time_grid(instance.T, n_eval)
    records = _sample_runs(instance, schedule, n_runs, seed)
    gaps = _Gaps()
    costs = _run_costs(instance, records, times, gaps)
    shape = (len(records), len(times), instance.n, instance.n)
    p, y = _Moments(shape), _Moments(shape)
    for i, P in gaps.windows():
        at = slice(i, i + P.shape[1])
        p.add(at, P)
        y.add(at, _sym(np.linalg.inv(P)))
    p_mean, p_std = p.result("covariance path")
    y_mean, y_std = y.result("information path")
    # the means are symmetric as every run's node is: each is checked once,
    # and one below the floor is a numeric failure, not malformed input
    for coords, mean in ((COV, p_mean), (INFO, y_mean)):
        require_pd(mean, lambda i: f"in the mean {coords} path at node "
                                   f"t={times[i]:g}")
    scale = np.sqrt(len(records))
    return McTrajectories(
        p_mean=Trajectory._checked(COV, times, p_mean),
        y_mean=Trajectory._checked(INFO, times, y_mean),
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
]
