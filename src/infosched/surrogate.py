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
stage point: the gain term of all of them (riccati.cov_gains; with p = 1
one GEMM of the flat sensor rows, a row-wise dot for the scalar
innovations S and one product HP^T ((lam / S) HP)), M p n^2 work that
grows with M, subtracted from the Lyapunov rate in riccati.cov_rhs.  That
asymmetry is the point of the information form and is what
scripts/assembly_benchmark.py measures.

Both integrators record on the uniform grid of n_eval intervals
(riccati.time_grid), as the rollouts do.  They step each segment between
stops (the grid's nodes merged with the stage boundaries, which meet nodes
by integer index) by the riccati module's RK4 and fail loudly if the state
at any segment's end leaves the positive definite cone: one batched check of
every stop after the walk, which names the first stop that fails.  The
covariance kind first refuses a step h with h (2 rho(A) + max_k sum_j
lam_kj) past RK4's real stability interval: the Lyapunov part's stiffest
mode plus the gain load of the busiest stage.  There P would grow without
bound and every stop would still pass.  The certificates use them, and
the covariance-form design path integrates the covariance form.  This
module returns paths only: every objective is riccati.pathwise_cost of one,
in either coordinate system.  The optimizer does not integrate the
information form: with U_k constant on a stage, the flow has an exact step
map (riccati.hamiltonian_maps), and the design path steps that map instead
(optimize).
"""

from __future__ import annotations

import numpy as np

from .model import Instance, Schedule, ValidationError, _check_pair, _sym
from .riccati import (
    COV,
    INFO,
    RK4_REAL_LIMIT,
    SUBSTEP_ADVICE,
    PositiveDefinitenessError,
    Trajectory,
    _integrate,
    cov_gains,
    cov_rhs,
    info_rhs,
    require_pd,
    time_grid,
)

KINDS = ("info", "cov")


def stage_increments(instance: Instance, schedule: Schedule) -> np.ndarray:
    """Per-stage information inputs U_k = sum_j rates[k, j] S_j, shape (N, n, n)."""
    return np.einsum("kj,jab->kab", schedule.rates, instance.S)


def _integrate_surrogate(instance, schedule, substeps, kind, n_eval):
    _check_pair(instance, schedule)
    if substeps < 1:
        raise ValidationError(f"substeps must be >= 1, got {substeps}")
    sys = instance.system
    A, Q = sys.A, sys.Q
    N = schedule.N
    if n_eval is None:
        n_eval = N * substeps
    times = time_grid(instance.T, n_eval)
    boundaries = time_grid(instance.T, N)
    # the stops in integer units of T / (N n_eval): node i at i N and stage
    # boundary k at k n_eval, which is a node (and takes its time) exactly
    # when N divides k n_eval
    stops = np.union1d(np.arange(n_eval + 1) * N, np.arange(N + 1) * n_eval)
    on_node = stops % N == 0
    at = np.where(on_node, times[stops // N], boundaries[stops // n_eval])
    # no step longer than delta / substeps, at least one per segment
    n_steps = -(-substeps * np.diff(stops) // n_eval)

    rates = schedule.rates
    if kind == "info":
        X = _sym(np.linalg.inv(sys.P0))
        U = stage_increments(instance, schedule)
    else:
        X = np.array(sys.P0)
        # the stiffest mode, A's eigenvalues doubled for the Lyapunov part
        # plus the gain load max_k sum_j lam_kj (each g_j has slope at most
        # 1 in P), must stay inside RK4's real stability interval, or P
        # grows without bound while every stop stays positive definite.
        # rho(A) <= |A|_1, so only a step past that bound needs eigenvalues
        h = float(np.max(np.diff(at) / n_steps))
        load = float(rates.sum(axis=1).max())
        if h * (2.0 * np.abs(A).sum(axis=0).max() + load) > RK4_REAL_LIMIT:
            stiff = 2.0 * float(np.abs(np.linalg.eigvals(A)).max()) + load
            if h * stiff > RK4_REAL_LIMIT:
                raise PositiveDefinitenessError(
                    f"cov surrogate step {h:.3e} is past RK4's stability "
                    f"limit {RK4_REAL_LIMIT} / (2 rho(A) + max_k sum_j "
                    f"lam_kj) = {RK4_REAL_LIMIT / stiff:.3e}; "
                    f"{SUBSTEP_ADVICE}")
        # per stage: the sensors with a nonzero rate, and their rates
        stages = [(cov_gains(instance.H[cols], instance.R[cols]), lam[cols])
                  for lam, cols in zip(rates, map(np.flatnonzero, rates))]

    path = np.empty((len(stops), sys.n, sys.n))
    path[0] = X
    # a stop that leaves the cone is reported by the one check below, not
    # warned about on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for i, u0 in enumerate(stops[:-1], 1):
            k = u0 // n_eval
            if kind == "info":
                Uk = U[k]
                rhs = lambda Y: info_rhs(Y, A, Q) + Uk
            else:
                gains, lam = stages[k]
                rhs = lambda P: cov_rhs(P, A, Q, gains.gain_term(P, lam))
            X = path[i] = _integrate(X, at[i] - at[i - 1], n_steps[i - 1],
                                     rhs)
    require_pd(path[1:], lambda i: f"in {kind} surrogate near t={at[i + 1]:g}",
               SUBSTEP_ADVICE)
    coords = INFO if kind == "info" else COV
    return Trajectory._checked(coords, times, path[on_node])


def integrate_info_surrogate(
    instance: Instance,
    schedule: Schedule,
    substeps: int = 10,
    n_eval: int | None = None,
) -> Trajectory:
    """Integrate the information-form surrogate.

    Records on the uniform grid of n_eval intervals, as the rollouts do;
    the default N * substeps is substep resolution.  Every stage boundary
    is a stop, and no step is longer than delta / substeps.
    """
    return _integrate_surrogate(instance, schedule, substeps, "info", n_eval)


def integrate_cov_surrogate(
    instance: Instance,
    schedule: Schedule,
    substeps: int = 10,
    n_eval: int | None = None,
) -> Trajectory:
    """Integrate the covariance-form surrogate, recorded in covariance
    coordinates on the grid of integrate_info_surrogate."""
    return _integrate_surrogate(instance, schedule, substeps, "cov", n_eval)


__all__ = [
    "KINDS",
    "integrate_cov_surrogate",
    "integrate_info_surrogate",
    "stage_increments",
]
