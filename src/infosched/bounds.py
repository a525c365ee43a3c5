"""Computable two-sided certificates for a schedule.

The information surrogate inverted to covariance coordinates is a trajectory
lower bound (in the Loewner order) for the mean filter covariance; the
covariance surrogate is an upper bound.  Integrating both and comparing with
Monte Carlo ground truth gives a falsifiable sandwich

    J_info  <=  E[J]  <=  J_cov

whose width is the price of certifying an open-loop schedule.  Both bounds
and the Monte Carlo objective are trapezoid sums on one evaluation grid,
where the surrogates are recorded and the rollouts sampled.  Matrix-level
margins are reported as nodewise minimum eigenvalues of symmetrized
differences; deterministic comparisons get a scale-relative tolerance
1e-7 * trace/n to absorb integrator error, statistical comparisons add three
standard errors of the nodewise trace.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .model import Instance, Schedule, Sensor, _dump_json, _sym
from .montecarlo import McEstimate, mc_mean_trajectories, mc_objective
from .riccati import invert_trajectory
from .surrogate import (
    cost_of_trajectory,
    integrate_cov_surrogate,
    integrate_info_surrogate,
)

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


def save_bracket_report(path, report: BracketReport) -> None:
    _dump_json(path, report.to_dict())


def _nodewise_min_eig(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(_sym(a - b))[:, 0]


def _surrogate_paths(instance, schedule, n_eval, surrogate_substeps):
    # both surrogates, recorded on the grid the Monte Carlo runs record on
    grid = np.linspace(0.0, instance.T, n_eval + 1)
    info_y = integrate_info_surrogate(instance, schedule, surrogate_substeps,
                                      grid=grid)
    p_cov = integrate_cov_surrogate(instance, schedule, surrogate_substeps,
                                    grid=grid)
    return info_y, p_cov


def _objective_parts(instance, info_y, p_cov, est):
    # the trapezoid rule on the evaluation grid, as for the Monte Carlo
    # objective, so all three objectives share one quadrature
    j_lower = cost_of_trajectory(info_y, instance.weights, instance.T)
    j_upper = cost_of_trajectory(p_cov, instance.weights, instance.T)
    # the deterministic term absorbs surrogate-vs-rollout step resolution;
    # it only matters when the Monte Carlo spread is exactly zero
    slack = 3.0 * est.stderr + DET_MARGIN_REL * max(abs(j_lower), abs(j_upper))
    contained = bool(j_lower - slack <= est.mean <= j_upper + slack)
    return j_lower, j_upper, contained


def objective_bracket(
    instance: Instance,
    schedule: Schedule,
    n_runs: int = 100,
    n_eval: int = 300,
    substeps: int = 4,
    surrogate_substeps: int = 10,
    seed: int = 0,
    n_jobs: int = 1,
) -> BracketReport:
    """Scalar certificate: surrogate bounds plus a Monte Carlo point estimate."""
    est = mc_objective(instance, schedule, n_runs=n_runs, n_eval=n_eval,
                       substeps=substeps, seed=seed, n_jobs=n_jobs)
    info_y, p_cov = _surrogate_paths(instance, schedule, n_eval,
                                     surrogate_substeps)
    j_lower, j_upper, contained = _objective_parts(instance, info_y, p_cov,
                                                   est)
    return BracketReport(
        j_lower=j_lower,
        j_upper=j_upper,
        mc=est,
        trace_p0=float(np.trace(instance.system.P0)),
        contained=contained,
    )


def trajectory_bracket(
    instance: Instance,
    schedule: Schedule,
    n_runs: int = 100,
    n_eval: int = 300,
    substeps: int = 4,
    surrogate_substeps: int = 10,
    seed: int = 0,
    n_jobs: int = 1,
) -> BracketReport:
    """Full certificate: objective bracket plus nodewise Loewner margins.

    Compares, on the shared evaluation grid, the surrogate covariance bounds
    against each other and against the Monte Carlo means of P(t) and of
    Y(t) = P(t)^{-1}.  The objective estimate comes from the same
    realizations, each rolled out once.
    """
    n = instance.n
    info_y, p_cov = _surrogate_paths(instance, schedule, n_eval,
                                     surrogate_substeps)
    p_info = invert_trajectory(info_y)
    mct = mc_mean_trajectories(instance, schedule, n_runs=n_runs,
                               n_eval=n_eval, substeps=substeps, seed=seed,
                               n_jobs=n_jobs)
    est = mct.objective
    j_lower, j_upper, contained = _objective_parts(instance, info_y, p_cov,
                                                   est)

    p_scale = np.maximum(
        np.trace(p_cov.values, axis1=1, axis2=2),
        np.trace(p_info.values, axis1=1, axis2=2),
    ) / n
    det_tol = DET_MARGIN_REL * p_scale
    y_scale = np.maximum(
        np.trace(info_y.values, axis1=1, axis2=2),
        np.trace(mct.y_mean.values, axis1=1, axis2=2),
    ) / n

    margins = {
        "cov_minus_info": _nodewise_min_eig(p_cov.values, p_info.values),
        "mc_minus_info": _nodewise_min_eig(mct.p_mean.values, p_info.values),
        "cov_minus_mc": _nodewise_min_eig(p_cov.values, mct.p_mean.values),
        "info_minus_mc_y": _nodewise_min_eig(info_y.values, mct.y_mean.values),
    }
    margin_tol = {
        "cov_minus_info": det_tol,
        "mc_minus_info": 3.0 * mct.p_trace_stderr + det_tol,
        "cov_minus_mc": 3.0 * mct.p_trace_stderr + det_tol,
        "info_minus_mc_y": 3.0 * mct.y_trace_stderr + DET_MARGIN_REL * y_scale,
    }
    trajectory_contained = all(
        bool(np.all(margins[key] >= -margin_tol[key])) for key in margins
    )
    return BracketReport(
        j_lower=j_lower,
        j_upper=j_upper,
        mc=est,
        trace_p0=float(np.trace(instance.system.P0)),
        contained=contained,
        times=info_y.times,
        margins=margins,
        margin_tol=margin_tol,
        trajectory_contained=trajectory_contained,
    )


def scale_sensor_noise(instance: Instance, r_scale: float) -> Instance:
    """New instance with every R_j multiplied by r_scale (S_j rescales too)."""
    sensors = tuple(Sensor(H=s.H, R=r_scale * s.R) for s in instance.sensors)
    return replace(instance, sensors=sensors)


def snr_sweep(
    instance: Instance,
    schedule: Schedule,
    r_scales: np.ndarray | None = None,
    n_runs: int = 100,
    n_eval: int = 300,
    substeps: int = 4,
    surrogate_substeps: int = 10,
    seed: int = 0,
    n_jobs: int = 1,
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
            scaled, schedule, n_runs=n_runs, n_eval=n_eval, substeps=substeps,
            surrogate_substeps=surrogate_substeps, seed=seed, n_jobs=n_jobs,
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
    "save_bracket_report",
    "scale_sensor_noise",
    "snr_sweep",
    "trajectory_bracket",
    "write_snr_csv",
]
