"""Deterministic rate surrogates in information and covariance coordinates.

Replacing the Poisson arrival process of a schedule by its rate turns the
random filter recursion into one ODE per coordinate system.  In information
coordinates the arrival terms enter linearly,

    Ydot = -Y A - A^T Y - Y Q Y + sum_j lam_j(t) S_j,

so the per-stage input U_k = sum_j lam_kj S_j is assembled once per control
interval no matter how many sensors there are.  In covariance coordinates the
rate enters through the state-dependent gain update,

    Pdot = A P + P A^T + Q - sum_j lam_j(t) g_j(P),

which forces the gain update of every sensor with a nonzero rate at every
stage point: one batched gain solve that grows with M.  That asymmetry is
the point of the information form and is what the assembly benchmark in the
optimizer module measures.

Both integrators here step each segment between stops (the recording grid
merged with the stage boundaries) by the riccati module's RK4 and fail
loudly if the state at the segment's end leaves the positive definite cone.
The certificates use them, and the covariance-form design path integrates
the covariance form.  This module returns paths only: every objective is
riccati.pathwise_cost of one, in either coordinate system.  The optimizer does not integrate the
information form: with U_k constant on a stage, the flow has an exact step
map (riccati.hamiltonian_maps), and the design path steps that map instead
(optimize).
"""

from __future__ import annotations

import math

import numpy as np

from .model import Instance, Schedule, ValidationError, _check_pair, _sym
from .riccati import (
    COV,
    INFO,
    SUBSTEP_ADVICE,
    Trajectory,
    _integrate,
    info_rhs,
    lyapunov_rhs,
    require_pd,
    stacked_gains,
)

KINDS = ("info", "cov")


def stage_increments(instance: Instance, schedule: Schedule) -> np.ndarray:
    """Per-stage information inputs U_k = sum_j rates[k, j] S_j, shape (N, n, n)."""
    return np.einsum("kj,jab->kab", schedule.rates, instance.S)


def cov_rate_rhs(P, A, Q, lam, g):
    """Covariance surrogate rate A P + P A^T + Q - sum_j lam_j g_j, with g
    the stacked gain updates g_j(P) of the sensors whose rates are lam."""
    return lyapunov_rhs(P, A, Q) - np.einsum("j,jab->ab", lam, g)


def _integrate_surrogate(instance, schedule, substeps, kind, grid):
    _check_pair(instance, schedule)
    if substeps < 1:
        raise ValidationError(f"substeps must be >= 1, got {substeps}")
    sys = instance.system
    A, Q = sys.A, sys.Q
    N, T = schedule.N, schedule.T
    delta = schedule.delta

    tol = 1e-9 * max(1.0, T)
    if grid is None:
        times = np.linspace(0.0, T, N * substeps + 1)
    else:
        times = np.asarray(grid, dtype=float)
        if times.ndim != 1 or len(times) < 2 or np.any(np.diff(times) <= 0) \
                or abs(times[0]) > tol or abs(times[-1] - T) > tol:
            raise ValidationError(
                "grid must be strictly increasing and span [0, T]"
            )
    # a stage boundary that misses a node by roundoff is that node, so no
    # segment is an ulp long (on the default grid: exactly one integrator
    # step per node gap)
    boundaries = np.linspace(0.0, T, N + 1)
    i = np.searchsorted(times, boundaries).clip(1, len(times) - 1)
    near = np.where(times[i] - boundaries < boundaries - times[i - 1],
                    times[i], times[i - 1])
    boundaries = np.where(np.abs(near - boundaries) <= tol, near, boundaries)

    rates = schedule.rates
    if kind == "info":
        X = _sym(np.linalg.inv(sys.P0))
        U = stage_increments(instance, schedule)
    else:
        X = np.array(sys.P0)
        # per stage: the sensors with a nonzero rate, and their rates
        stages = [(instance.H[cols], instance.R[cols], lam[cols])
                  for lam, cols in zip(rates, map(np.flatnonzero, rates))]

    # every stop, with the path recorded at the grid's nodes among them
    stops = np.union1d(times, boundaries)
    path = np.empty((len(stops), sys.n, sys.n))
    path[0] = X
    for i, (prev, t) in enumerate(zip(stops[:-1], stops[1:]), 1):
        # no step longer than delta / substeps, at least one per segment
        n_steps = max(1, math.ceil(substeps * (t - prev) / delta - 1e-9))
        k = min(int((0.5 * (prev + t)) / delta), N - 1)
        if kind == "info":
            Uk = U[k]
            rhs = lambda Y: info_rhs(Y, A, Q) + Uk
        else:
            H, R, lam = stages[k]
            rhs = lambda P: cov_rate_rhs(P, A, Q, lam,
                                         stacked_gains(P, H, R)[0])
        X = path[i] = _integrate(X, t - prev, n_steps, rhs)
        require_pd(X, f"in {kind} surrogate near t={t:g}", SUBSTEP_ADVICE)
    values = path[np.searchsorted(stops, times)]
    coords = INFO if kind == "info" else COV
    return Trajectory(coordinates=coords, times=times, values=values)


def integrate_info_surrogate(
    instance: Instance,
    schedule: Schedule,
    substeps: int = 10,
    grid: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the information-form surrogate.

    Default sampling is substep resolution (N * substeps + 1 nodes); passing
    an explicit grid records there instead while still honoring stage
    boundaries and the per-stage substep budget.
    """
    return _integrate_surrogate(instance, schedule, substeps, "info", grid)


def integrate_cov_surrogate(
    instance: Instance,
    schedule: Schedule,
    substeps: int = 10,
    grid: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the covariance-form surrogate; sampling as in the info form."""
    return _integrate_surrogate(instance, schedule, substeps, "cov", grid)


__all__ = [
    "KINDS",
    "cov_rate_rhs",
    "integrate_cov_surrogate",
    "integrate_info_surrogate",
    "stage_increments",
]
