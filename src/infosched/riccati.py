"""Deterministic Riccati kernels shared by rollouts and surrogates.

Covariance coordinates evolve by the Lyapunov flow

    Pdot = A P + P A^T + Q

between measurement arrivals and drop by the gain update

    P+ = P - P H^T (H P H^T + R)^{-1} H P

at an arrival.  Information coordinates Y = P^{-1} obey the dual pair

    Ydot = -Y A - A^T Y - Y Q Y,        Y+ = Y + H^T R^{-1} H.

Flows are integrated with fixed-step explicit schemes: classical RK4 by
default, forward Euler as a cross-check.  Each scheme is defined once here,
its forward step paired with the step's exact adjoint, which the optimizer's
reverse sweep runs.  Every step re-symmetrizes the state
((X + X^T)/2) so roundoff cannot push iterates off the symmetric cone, and
positive definiteness is enforced against a scale-relative floor; losing it
is reported as an error suggesting more substeps rather than silently
repaired.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import ValidationError, WeightSpec, _sym

PD_FLOOR_REL = 1e-12   # min eigenvalue must stay above PD_FLOOR_REL * trace/n

COV = "covariance"
INFO = "information"


class PositiveDefinitenessError(RuntimeError):
    """An integrated matrix lost positive definiteness."""

    def __init__(self, msg: str, min_eig: float | None = None):
        super().__init__(msg)
        self.min_eig = min_eig


def pd_floor(x: np.ndarray) -> float:
    """Scale-relative positive definiteness floor for a state of x's size."""
    n = x.shape[0]
    return PD_FLOOR_REL * max(float(np.trace(x)) / n, 1e-300)


def require_pd(x: np.ndarray, context: str = "") -> None:
    """Raise if min eig of x is at or below the scale-relative floor."""
    floor = pd_floor(x)
    shifted = x - floor * np.eye(x.shape[0])
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        m = float(np.linalg.eigvalsh(_sym(x))[0])
        where = f" {context}" if context else ""
        raise PositiveDefinitenessError(
            f"matrix lost positive definiteness{where}: min eigenvalue "
            f"{m:.6e} <= floor {floor:.6e}; increase substeps",
            min_eig=m,
        ) from None


def lyapunov_rhs(P: np.ndarray, A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    AP = A @ P
    return AP + AP.T + Q


def info_rhs(Y: np.ndarray, A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    YA = Y @ A
    return -(YA + YA.T) - Y @ Q @ Y


def _rk4_step(x, h, rhs):
    k1 = rhs(x)
    k2 = rhs(x + 0.5 * h * k1)
    k3 = rhs(x + 0.5 * h * k2)
    k4 = rhs(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _rk4_reverse(x, h, linearize, bar):
    """Carry the adjoint bar of one RK4 step's output back to its input x.

    linearize(z) is the right-hand side linearized at z: rate() is the rate
    there, vjp(v) the transposed Jacobian applied to v.  The stage points are
    recomputed from x.  Returns the adjoint of x and, in stage order, each
    stage point's linearization paired with the adjoint of its rate.
    """
    l1 = linearize(x)
    l2 = linearize(x + 0.5 * h * l1.rate())
    l3 = linearize(x + 0.5 * h * l2.rate())
    l4 = linearize(x + h * l3.rate())
    kb4 = (h / 6.0) * bar
    xb4 = l4.vjp(kb4)
    kb3 = (h / 3.0) * bar + h * xb4
    xb3 = l3.vjp(kb3)
    kb2 = (h / 3.0) * bar + 0.5 * h * xb3
    xb2 = l2.vjp(kb2)
    kb1 = (h / 6.0) * bar + 0.5 * h * xb2
    x_bar = _sym(bar + xb4 + xb3 + xb2 + l1.vjp(kb1))
    return x_bar, ((l1, kb1), (l2, kb2), (l3, kb3), (l4, kb4))


def _euler_step(x, h, rhs):
    return x + h * rhs(x)


def _euler_reverse(x, h, linearize, bar):
    """Adjoint of one Euler step; same contract as _rk4_reverse."""
    l1 = linearize(x)
    kb1 = h * bar
    return _sym(bar + l1.vjp(kb1)), ((l1, kb1),)


# each scheme once: its forward step paired with the step's exact adjoint
_SCHEMES = {"rk4": (_rk4_step, _rk4_reverse),
            "euler": (_euler_step, _euler_reverse)}


def _scheme(name: str):
    """The (step, reverse) pair of a scheme."""
    try:
        return _SCHEMES[name]
    except KeyError:
        raise ValidationError(
            f"unknown scheme {name!r}, expected one of {sorted(_SCHEMES)}"
        ) from None


def _integrate(x0, dt, substeps, rhs, scheme):
    if dt < 0:
        raise ValidationError(f"dt must be nonnegative, got {dt}")
    if dt == 0.0:
        return x0.copy()
    if substeps < 1:
        raise ValidationError(f"substeps must be >= 1, got {substeps}")
    step, _ = _scheme(scheme)
    h = dt / substeps
    x = x0
    for _ in range(substeps):
        x = _sym(step(x, h, rhs))
    return x


def flow_cov(P, A, Q, dt, substeps: int = 100, scheme: str = "rk4") -> np.ndarray:
    """Propagate a covariance through the Lyapunov flow for a time dt."""
    out = _integrate(P, dt, substeps, lambda X: lyapunov_rhs(X, A, Q), scheme)
    require_pd(out, f"after covariance flow over dt={dt:g}")
    return out


def flow_info(Y, A, Q, dt, substeps: int = 100, scheme: str = "rk4") -> np.ndarray:
    """Propagate an information matrix through the dual flow for a time dt."""
    out = _integrate(Y, dt, substeps, lambda X: info_rhs(X, A, Q), scheme)
    require_pd(out, f"after information flow over dt={dt:g}")
    return out


def covariance_decrement(P, sensor) -> np.ndarray:
    """Gain update g(P) = P H^T (H P H^T + R)^{-1} H P for one arrival."""
    HP = sensor.H @ P
    M = HP @ sensor.H.T + sensor.R
    return _sym(HP.T @ np.linalg.solve(M, HP))


def jump_cov(P, sensor) -> np.ndarray:
    """Covariance after processing one arrival from the given sensor."""
    return _sym(P - covariance_decrement(P, sensor))


def jump_info(Y, sensor) -> np.ndarray:
    """Information matrix after one arrival: Y + H^T R^{-1} H."""
    return _sym(Y + sensor.S)


# ---------------------------------------------------------------------------
# stop walking


def walk_stops(grid, cuts, base_dt: float, substeps: int):
    """Walk the merged stops of a recording grid and extra cut times.

    Yields (t_prev, t, n_steps, node) for every stop t in increasing order.
    t_prev is the previous stop (None at the first, where n_steps is 0);
    n_steps is the integrator step count for the segment [t_prev, t], chosen
    so no step exceeds base_dt / substeps and every segment gets at least
    one; node is the index of t in grid, or None when t is only a cut.
    Callers flow over the segment, apply whatever happens at t, then record
    at node.  Exhausting the walk checks that every grid node was visited.
    """
    stops = np.union1d(grid, cuts)
    n_nodes = len(grid)
    gi = 0
    prev = None
    for t in stops:
        n_steps = 0 if prev is None else \
            max(1, math.ceil(substeps * (t - prev) / base_dt - 1e-9))
        node = None
        if gi < n_nodes and grid[gi] == t:
            node = gi
            gi += 1
        yield prev, t, n_steps, node
        prev = t
    if gi != n_nodes:   # pragma: no cover - union1d guarantees coverage
        raise RuntimeError("internal: recording grid not fully visited")


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class Trajectory:
    """Matrix path sampled on a time grid.

    coordinates is "covariance" or "information"; values[i] is the matrix at
    times[i].  Nodes are validated to be symmetric and positive definite
    (above the scale-relative floor) on construction.
    """

    coordinates: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.coordinates not in (COV, INFO):
            raise ValidationError(
                f"coordinates must be {COV!r} or {INFO!r}, got {self.coordinates!r}"
            )
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValidationError("times must be a 1-D grid with >= 2 nodes")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("times must be strictly increasing")
        if values.shape[0] != times.shape[0] or values.ndim != 3 \
                or values.shape[1] != values.shape[2]:
            raise ValidationError(
                f"values must have shape (len(times), n, n), got {values.shape}"
            )
        skew = np.max(np.abs(values - values.transpose(0, 2, 1)))
        scale = max(float(np.max(np.abs(values))), 1e-300)
        if skew > 1e-9 * scale:
            raise ValidationError(
                f"trajectory nodes not symmetric: max skew {skew:.3e}"
            )
        for i in range(values.shape[0]):
            try:
                require_pd(values[i], f"at node t={times[i]:g}")
            except PositiveDefinitenessError as exc:
                raise ValidationError(str(exc)) from None
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def invert_trajectory(traj: Trajectory) -> Trajectory:
    """Nodewise inverse; flips between covariance and information coordinates."""
    inv = _sym(np.linalg.inv(traj.values))
    coords = INFO if traj.coordinates == COV else COV
    return Trajectory(coordinates=coords, times=traj.times, values=inv)


def quadrature_weights(times: np.ndarray, weights: WeightSpec) -> np.ndarray | None:
    """Effective per-node weight matrices of the composite trapezoid rule.

    Returns W_hat with cost = sum_i <W_hat[i], P_i> equal to the trapezoid
    approximation of the running integral, or None when W is identically
    zero.  The running weight on a subinterval is the stage matrix at the
    subinterval midpoint, which reproduces the piecewise-constant W exactly
    whenever the grid contains the stage boundaries.
    """
    stages = weights.W_stages
    if stages is None:
        return None
    n_stages = stages.shape[0]
    span = float(times[-1] - times[0])
    delta = span / n_stages
    out = np.zeros((len(times),) + stages.shape[1:])
    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        mid = 0.5 * (times[i] + times[i + 1]) - times[0]
        k = min(int(mid / delta), n_stages - 1)
        out[i] += 0.5 * dt * stages[k]
        out[i + 1] += 0.5 * dt * stages[k]
    return out


def pathwise_cost(
    traj: Trajectory, weights: WeightSpec, horizon: float | None = None
) -> float:
    """Objective integral(<W(t), P(t)>) dt + <W_T, P(T)> along a trajectory.

    Uses the composite trapezoid rule on the trajectory's own grid.  The
    trajectory must be in covariance coordinates; invert information paths
    first.  When horizon is given, the grid must span [0, horizon].
    """
    if traj.coordinates != COV:
        raise ValidationError(
            "pathwise_cost expects covariance coordinates; "
            "apply invert_trajectory first"
        )
    if weights.n != traj.n:
        raise ValidationError(
            f"weights are {weights.n}x{weights.n}, trajectory is {traj.n}x{traj.n}"
        )
    if horizon is not None:
        tol = 1e-9 * max(1.0, abs(horizon))
        if abs(traj.times[0]) > tol or abs(traj.times[-1] - horizon) > tol:
            raise ValidationError(
                f"trajectory grid spans [{traj.times[0]:g}, {traj.times[-1]:g}], "
                f"expected [0, {horizon:g}]"
            )
    total = float(np.tensordot(weights.W_T, traj.values[-1], axes=2))
    w_hat = quadrature_weights(traj.times, weights)
    if w_hat is not None:
        total += float(np.sum(w_hat * traj.values))
    return total


def trajectory_to_csv(path, traj: Trajectory) -> None:
    """Write nodes as rows: t, then the matrix entries in row-major order."""
    n = traj.n
    header = ["t"] + [f"x{i}{j}" if n <= 10 else f"x{i}_{j}"
                      for i in range(n) for j in range(n)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, val in zip(traj.times, traj.values):
            writer.writerow([repr(float(t))] + [repr(float(v))
                                                for v in val.ravel()])


__all__ = [
    "COV",
    "INFO",
    "PositiveDefinitenessError",
    "Trajectory",
    "covariance_decrement",
    "flow_cov",
    "flow_info",
    "info_rhs",
    "invert_trajectory",
    "jump_cov",
    "jump_info",
    "lyapunov_rhs",
    "pathwise_cost",
    "pd_floor",
    "quadrature_weights",
    "require_pd",
    "trajectory_to_csv",
    "walk_stops",
]
