"""Deterministic rate surrogates in information and covariance coordinates.

Replacing the Poisson arrival process of a schedule by its rate turns the
random filter recursion into one ODE per coordinate system.  In information
coordinates the arrival terms enter linearly,

    Ydot = -Y A - A^T Y - Y Q Y + sum_j lam_j(t) S_j,

so the per-stage input U_k = sum_j lam_kj S_j is assembled once per control
interval no matter how many sensors there are.  In covariance coordinates the
rate enters through the state-dependent gain update,

    Pdot = A P + P A^T + Q - sum_j lam_j(t) g_j(P),

which forces one g_j evaluation per sensor at every integrator stage.  That
asymmetry is the point of the information form and is what the assembly
benchmark in the optimizer module measures.

Both integrators step each segment between stops through the shared
fixed-step schemes of the riccati module and fail loudly if the state at the
segment's end leaves the positive definite cone.
"""

from __future__ import annotations

import numpy as np

from .model import Instance, Schedule, ValidationError, _sym
from .riccati import (
    COV,
    INFO,
    Trajectory,
    _integrate,
    covariance_decrement,
    info_rhs,
    lyapunov_rhs,
    pathwise_cost,
    quadrature_weights,
    require_pd,
    walk_stops,
)

KINDS = ("info", "cov")


def stage_increments(instance: Instance, schedule: Schedule) -> np.ndarray:
    """Per-stage information inputs U_k = sum_j rates[k, j] S_j, shape (N, n, n)."""
    S = np.stack([s.S for s in instance.sensors])
    return np.einsum("kj,jab->kab", schedule.rates, S)


def _check_pair(instance: Instance, schedule: Schedule) -> None:
    if schedule.M != instance.M:
        raise ValidationError(
            f"schedule has {schedule.M} sensor columns, instance has {instance.M}"
        )
    if abs(schedule.T - instance.T) > 1e-9 * max(1.0, instance.T):
        raise ValidationError(
            f"schedule horizon {schedule.T:g} != instance horizon {instance.T:g}"
        )


def cov_rate_rhs(P, A, Q, lam_row, decrement):
    """Covariance surrogate rate A P + P A^T + Q - sum_j lam_j g_j(P).

    decrement(j) returns the gain update g_j(P); it is only called for
    sensors with a nonzero rate.
    """
    out = lyapunov_rhs(P, A, Q)
    for j in range(len(lam_row)):
        lam = lam_row[j]
        if lam != 0.0:
            out = out - lam * decrement(j)
    return out


def _integrate_surrogate(instance, schedule, substeps, scheme, kind, grid):
    _check_pair(instance, schedule)
    if substeps < 1:
        raise ValidationError(f"substeps must be >= 1, got {substeps}")
    if kind not in KINDS:
        raise ValidationError(f"kind must be one of {KINDS}, got {kind!r}")
    sys = instance.system
    A, Q = sys.A, sys.Q
    N, T = schedule.N, schedule.T
    delta = schedule.delta

    if grid is None:
        times = np.linspace(0.0, T, N * substeps + 1)
        # boundaries share bits with the node grid: exactly one integrator
        # step per node gap, no micro-segments from float disagreement
        boundaries = times[:: substeps]
    else:
        times = np.asarray(grid, dtype=float)
        tol = 1e-9 * max(1.0, T)
        if times.ndim != 1 or len(times) < 2 or np.any(np.diff(times) <= 0) \
                or abs(times[0]) > tol or abs(times[-1] - T) > tol:
            raise ValidationError(
                "grid must be strictly increasing and span [0, T]"
            )
        boundaries = np.linspace(0.0, T, N + 1)

    rates = schedule.rates
    if kind == "info":
        X = _sym(np.linalg.inv(sys.P0))
        U = stage_increments(instance, schedule)
    else:
        X = np.array(sys.P0)

    values = np.empty((len(times), sys.n, sys.n))
    for prev, t, n_steps, node in walk_stops(times, boundaries, delta, substeps):
        if n_steps:
            k = min(int((0.5 * (prev + t)) / delta), N - 1)
            if kind == "info":
                Uk = U[k]
                rhs = lambda Y: info_rhs(Y, A, Q) + Uk
            else:
                lam_row = rates[k]
                rhs = lambda P: cov_rate_rhs(
                    P, A, Q, lam_row,
                    lambda j: covariance_decrement(P, instance.sensors[j]))
            X = _integrate(X, t - prev, n_steps, rhs, scheme)
            require_pd(X, f"in {kind} surrogate near t={t:g}")
        if node is not None:
            values[node] = X
    coords = INFO if kind == "info" else COV
    return Trajectory(coordinates=coords, times=times, values=values)


def integrate_info_surrogate(
    instance: Instance,
    schedule: Schedule,
    substeps: int = 10,
    scheme: str = "rk4",
    grid: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the information-form surrogate.

    Default sampling is substep resolution (N * substeps + 1 nodes); passing
    an explicit grid records there instead while still honoring stage
    boundaries and the per-stage substep budget.
    """
    return _integrate_surrogate(instance, schedule, substeps, scheme, "info", grid)


def integrate_cov_surrogate(
    instance: Instance,
    schedule: Schedule,
    substeps: int = 10,
    scheme: str = "rk4",
    grid: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the covariance-form surrogate; sampling as in the info form."""
    return _integrate_surrogate(instance, schedule, substeps, scheme, "cov", grid)


def cost_of_trajectory(traj: Trajectory, weights, horizon: float) -> float:
    """Objective of a surrogate path in either coordinate system.

    Identical quadrature to riccati.pathwise_cost; information paths are
    inverted only at the nodes the weights actually touch, which keeps the
    zero-running-weight case cheap.
    """
    if traj.coordinates == COV:
        return pathwise_cost(traj, weights, horizon)
    w_hat = quadrature_weights(traj.times, weights)
    Pk = _sym(np.linalg.inv(traj.values[-1]))
    total = float(np.tensordot(weights.W_T, Pk, axes=2))
    if w_hat is not None:
        inv = _sym(np.linalg.inv(traj.values))
        total += float(np.sum(w_hat * inv))
    return total


def surrogate_trajectory(
    instance: Instance,
    schedule: Schedule,
    kind: str = "info",
    substeps: int = 10,
    scheme: str = "rk4",
) -> Trajectory:
    """Trajectory of the chosen surrogate kind at substep resolution."""
    if kind == "info":
        return integrate_info_surrogate(instance, schedule, substeps, scheme)
    if kind == "cov":
        return integrate_cov_surrogate(instance, schedule, substeps, scheme)
    raise ValidationError(f"kind must be one of {KINDS}, got {kind!r}")


def surrogate_objective(
    instance: Instance,
    schedule: Schedule,
    kind: str = "info",
    substeps: int = 10,
    scheme: str = "rk4",
) -> float:
    """Objective value of the chosen surrogate at the schedule.

    Equals pathwise_cost of the (inverted, for the info kind) surrogate
    trajectory at substep resolution.
    """
    traj = surrogate_trajectory(instance, schedule, kind, substeps, scheme)
    return cost_of_trajectory(traj, instance.weights, instance.T)


__all__ = [
    "KINDS",
    "cost_of_trajectory",
    "cov_rate_rhs",
    "integrate_cov_surrogate",
    "integrate_info_surrogate",
    "stage_increments",
    "surrogate_objective",
    "surrogate_trajectory",
]
