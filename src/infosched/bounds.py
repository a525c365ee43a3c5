"""Computable two-sided certificates for a schedule.

The information surrogate inverted to covariance coordinates is a trajectory
lower bound (in the Loewner order) for the mean filter covariance; the
covariance surrogate is an upper bound.  Integrating both and comparing with
Monte Carlo ground truth gives a falsifiable sandwich

    J_info  <=  E[J]  <=  J_cov

whose width is the price of certifying an open-loop schedule.  Both bounds
and the Monte Carlo objective reduce their paths with one table of node
weights (riccati.node_weights) on one evaluation grid, where the surrogates
are recorded and the rollouts sampled.  The objective bracket's information
bound inverts its path at the weighted nodes only; the trajectory bracket
inverts the whole path once and reads the bound from that inverse.  Both
brackets work in one order: every argument is checked, then both
surrogates are integrated, then the Monte Carlo runs, so a surrogate that
refuses its step costs no sampling; one helper (_report) builds each
BracketReport, whose to_dict is the JSON report.  Every derived path is
checked once, where it is formed.  The Monte Carlo runs are stepped
together in one batched filter walk.  Matrix-level margins
are the nodewise minimum eigenvalues of symmetrized differences;
deterministic comparisons get a scale-relative tolerance 1e-7 * trace/n to
absorb integrator error, statistical comparisons add three standard errors
of the nodewise trace.  Every trace/n is model.trace_over_n, the rule of
the positive-definiteness floor, which cannot overflow; a trace of P0 that
does is refused before any work.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .model import Instance, Schedule, Sensor, ValidationError
from .model import _count, _number, _seed_sequence, _sym, trace_over_n
from .montecarlo import McEstimate, mc_mean_trajectories, mc_objective
from .riccati import (invert_trajectory, pathwise_cost, require_finite,
                      time_grid)
from .surrogate import integrate_cov_surrogate, integrate_info_surrogate

DET_MARGIN_REL = 1e-7     # integrator-error allowance, times trace/n


@dataclass(frozen=True)
class BracketReport:
    """One schedule's certificate: bounds, Monte Carlo reference, margins."""

    j_lower: float
    j_upper: float
    mc: McEstimate
    trace_p0: float
    contained: bool                 # j_lower - 3se <= mean <= j_upper + 3se
    times: np.ndarray | None = None
    margins: dict | None = None     # nodewise min eigenvalues, by comparison
    margin_tol: dict | None = None  # allowance per comparison, same keys
    trajectory_contained: bool | None = None

    @property
    def normalized_lower(self) -> float:
        return self.j_lower / self.trace_p0

    @property
    def normalized_upper(self) -> float:
        return self.j_upper / self.trace_p0

    @property
    def normalized_mean(self) -> float:
        return self.mc.mean / self.trace_p0

    @property
    def normalized_width(self) -> float:
        return (self.j_upper - self.j_lower) / self.trace_p0

    def to_dict(self) -> dict:
        out = {
            "j_lower": self.j_lower,
            "j_upper": self.j_upper,
            "mc": self.mc.to_dict(),
            "trace_p0": self.trace_p0,
            "normalized": {
                "lower": self.normalized_lower,
                "upper": self.normalized_upper,
                "mean": self.normalized_mean,
                "width": self.normalized_width,
            },
            "contained": bool(self.contained),
        }
        if self.margins is not None:
            out["times"] = [float(t) for t in self.times]
            out["margins"] = {k: [float(v) for v in vals]
                              for k, vals in self.margins.items()}
            out["margin_tol"] = {k: [float(v) for v in vals]
                                 for k, vals in self.margin_tol.items()}
            out["trajectory_contained"] = bool(self.trajectory_contained)
        return out


def _surrogate_paths(instance, schedule, n_runs, n_eval, surrogate_substeps,
                     seed):
    """trace(P0) and both surrogate paths, recorded on the grid the Monte
    Carlo runs record on.  Every refusal of a bracket comes first, before
    any work: each usage error, then a trace past the largest float, which
    would normalize every objective to zero."""
    _seed_sequence(seed)
    time_grid(instance.T, n_eval)
    _count(n_runs, "n_runs")
    substeps = _count(surrogate_substeps, "surrogate_substeps")
    with np.errstate(over="ignore"):   # checked here
        trace_p0 = float(require_finite(np.trace(instance.system.P0),
                                        "trace of P0"))
    return (trace_p0,
            integrate_info_surrogate(instance, schedule, substeps, n_eval),
            integrate_cov_surrogate(instance, schedule, substeps, n_eval))


def _report(instance, trace_p0, lower, p_cov, est, **margins) -> BracketReport:
    """The certificate of the lower and upper surrogate paths and the Monte
    Carlo estimate est; margins, the trajectory bracket's fields."""
    # the node weights of the evaluation grid, as for the Monte Carlo
    # objective, so all three objectives share one quadrature
    j_lower = pathwise_cost(lower, instance.weights, instance.T)
    j_upper = pathwise_cost(p_cov, instance.weights, instance.T)
    # the deterministic term absorbs surrogate-vs-rollout step resolution;
    # it only matters when the Monte Carlo spread is exactly zero
    slack = 3.0 * est.stderr + DET_MARGIN_REL * max(abs(j_lower), abs(j_upper))
    return BracketReport(
        j_lower=j_lower, j_upper=j_upper, mc=est, trace_p0=trace_p0,
        contained=bool(j_lower - slack <= est.mean <= j_upper + slack),
        **margins)


def objective_bracket(
    instance: Instance,
    schedule: Schedule,
    n_runs: int = 100,
    n_eval: int = 300,
    surrogate_substeps: int = 10,
    seed: int = 0,
) -> BracketReport:
    """Scalar certificate: surrogate bounds plus a Monte Carlo point estimate."""
    trace_p0, info_y, p_cov = _surrogate_paths(
        instance, schedule, n_runs, n_eval, surrogate_substeps, seed)
    est = mc_objective(instance, schedule, n_runs=n_runs, n_eval=n_eval,
                       seed=seed)
    return _report(instance, trace_p0, info_y, p_cov, est)


def trajectory_bracket(
    instance: Instance,
    schedule: Schedule,
    n_runs: int = 100,
    n_eval: int = 300,
    surrogate_substeps: int = 10,
    seed: int = 0,
) -> BracketReport:
    """Full certificate: objective bracket plus nodewise Loewner margins.

    Compares, on the shared evaluation grid, the surrogate covariance bounds
    against each other and against the Monte Carlo means of P(t) and of
    Y(t) = P(t)^{-1}.  The objective estimate comes from the same
    realizations, each rolled out once.
    """
    trace_p0, info_y, p_cov = _surrogate_paths(
        instance, schedule, n_runs, n_eval, surrogate_substeps, seed)
    p_info = invert_trajectory(info_y)
    mct = mc_mean_trajectories(instance, schedule, n_runs=n_runs,
                               n_eval=n_eval, seed=seed)

    # each pair's larger trace/n, by the floor's overflow-safe rule
    scale = lambda x: trace_over_n(np.diagonal(x.values, axis1=1, axis2=2))
    det_tol = DET_MARGIN_REL * np.maximum(scale(p_cov), scale(p_info))
    y_scale = np.maximum(scale(info_y), scale(mct.y_mean))

    # each comparison's nodewise min eigenvalue, from one batched eigvalsh
    pairs = {"cov_minus_info": (p_cov, p_info),
             "mc_minus_info": (mct.p_mean, p_info),
             "cov_minus_mc": (p_cov, mct.p_mean),
             "info_minus_mc_y": (info_y, mct.y_mean)}
    diffs = np.stack([a.values - b.values for a, b in pairs.values()])
    margins = dict(zip(pairs, np.linalg.eigvalsh(_sym(diffs))[..., 0]))
    margin_tol = {
        "cov_minus_info": det_tol,
        "mc_minus_info": 3.0 * mct.p_trace_stderr + det_tol,
        "cov_minus_mc": 3.0 * mct.p_trace_stderr + det_tol,
        "info_minus_mc_y": 3.0 * mct.y_trace_stderr + DET_MARGIN_REL * y_scale,
    }
    trajectory_contained = all(
        bool(np.all(margins[key] >= -margin_tol[key])) for key in margins
    )
    return _report(instance, trace_p0, p_info, p_cov, mct.objective,
                   times=info_y.times, margins=margins, margin_tol=margin_tol,
                   trajectory_contained=trajectory_contained)


def scale_sensor_noise(instance: Instance, r_scale: float) -> Instance:
    """New instance with every R_j times r_scale > 0 (S_j rescales too)."""
    if not (np.isfinite(_number(r_scale, "r_scale")) and r_scale > 0):
        raise ValidationError(
            f"r_scale must be finite and positive, got {r_scale!r}")
    sensors = tuple(Sensor(H=s.H, R=r_scale * s.R) for s in instance.sensors)
    return replace(instance, sensors=sensors)


def snr_sweep(
    instance: Instance,
    schedule: Schedule,
    r_scales: np.ndarray | None = None,
    n_runs: int = 100,
    n_eval: int = 300,
    surrogate_substeps: int = 10,
    seed: int = 0,
) -> list[tuple[float, BracketReport]]:
    """Objective bracket of the same schedule across noise scalings.

    Default grid: nine log-spaced points in [1e-2, 1e2].  As r_scale grows
    without bound all three objectives approach the measurement-free
    Lyapunov cost and the bracket collapses; within the grid the width is
    not monotone in general, it depends on how informative the arrivals are
    relative to the initial uncertainty.
    """
    if r_scales is None:
        r_scales = np.logspace(-2.0, 2.0, 9)
    out = []
    for r in np.asarray(r_scales, dtype=float):
        scaled = scale_sensor_noise(instance, float(r))
        report = objective_bracket(
            scaled, schedule, n_runs=n_runs, n_eval=n_eval,
            surrogate_substeps=surrogate_substeps, seed=seed,
        )
        out.append((float(r), report))
    return out


def write_snr_csv(path, sweep: list[tuple[float, BracketReport]]) -> None:
    """Long-form sweep table, one row per noise scale."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "r_scale", "J_lower", "mc_mean", "mc_stderr", "J_upper",
            "norm_lower_dev", "norm_upper_dev", "contained",
        ])
        for r, rep in sweep:
            writer.writerow([
                repr(float(r)),
                repr(rep.j_lower),
                repr(rep.mc.mean),
                repr(rep.mc.stderr),
                repr(rep.j_upper),
                repr((rep.mc.mean - rep.j_lower) / rep.trace_p0),
                repr((rep.j_upper - rep.mc.mean) / rep.trace_p0),
                int(rep.contained),
            ])


__all__ = [
    "BracketReport",
    "objective_bracket",
    "scale_sensor_noise",
    "snr_sweep",
    "trajectory_bracket",
    "write_snr_csv",
]
