"""Schedule optimization by single shooting with an exact discrete adjoint.

The decision variable is the full rate table lam (N stages x M sensors).  A
forward pass integrates the chosen surrogate at substep resolution; the
gradient comes from reverse-mode differentiation of that exact discrete map,
stage state by stage state through each RK4 (or Euler) step.  No ODE is
solved backwards, so the gradient matches central differences to roundoff
rather than to integrator tolerance.

Descent is projected gradient with a Barzilai-Borwein step, safeguarded by
monotone Armijo backtracking on the projection arc.  Losing positive
definiteness at a trial point counts as a failed trial, never as a crash.
Stage projections use an exact O(M log M) routine for the common single
budget row and Dykstra's alternating projections for general polytopes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import (
    Instance,
    ResourcePolytope,
    Schedule,
    ValidationError,
    _sym,
    schedule_to_dict,
)
from .riccati import PositiveDefinitenessError, info_rhs, quadrature_weights
from .surrogate import (
    KINDS,
    cost_of_trajectory,
    cov_rate_rhs,
    stage_increments,
    surrogate_objective,
    surrogate_trajectory,
)


class ProjectionError(RuntimeError):
    """Dykstra's iteration failed to converge within the cap."""


@dataclass(frozen=True)
class ShootingProblem:
    """Surrogate objective as a function of the (N, M) rate table."""

    instance: Instance
    N: int
    kind: str = "info"
    substeps: int = 10
    scheme: str = "rk4"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if int(self.N) < 1:
            raise ValidationError(f"N must be >= 1, got {self.N}")
        if int(self.substeps) < 1:
            raise ValidationError(f"substeps must be >= 1, got {self.substeps}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "substeps", int(self.substeps))

    @property
    def M(self) -> int:
        return self.instance.M

    def schedule(self, rates: np.ndarray) -> Schedule:
        return Schedule(N=self.N, T=self.instance.T, rates=rates)


def objective(problem: ShootingProblem, rates: np.ndarray) -> float:
    """Forward pass only; exactly the discretized surrogate objective."""
    return surrogate_objective(problem.instance, problem.schedule(rates),
                               problem.kind, problem.substeps, problem.scheme)


# ---------------------------------------------------------------------------
# adjoint sweeps


def _info_df_adj(Y, L, A, Q):
    # adjoint of V -> -VA - A^T V - VQY - YQV at symmetric L
    QY = Q @ Y
    return -(A @ L + L @ A.T) - (QY @ L + L @ QY.T)


def _grad_info(problem: ShootingProblem, traj, U):
    inst = problem.instance
    sys = inst.system
    A, Q = sys.A, sys.Q
    N, S = problem.N, problem.substeps
    values = traj.values
    h = inst.T / (N * S)
    w_hat = quadrature_weights(traj.times, inst.weights)

    Pk = _sym(np.linalg.inv(values[-1]))
    Wterm = inst.weights.W_T if w_hat is None else inst.weights.W_T + w_hat[-1]
    Lam = -_sym(Pk @ Wterm @ Pk)

    S_stack = np.stack([s.S for s in inst.sensors])
    G = np.zeros((N, problem.M))
    euler = problem.scheme == "euler"
    for k in range(N - 1, -1, -1):
        Uk = U[k]
        acc = np.zeros_like(Lam)
        for s in range(S - 1, -1, -1):
            i = k * S + s
            Y0 = values[i]
            if euler:
                kbar = h * Lam
                acc += kbar
                Lam = _sym(Lam + _info_df_adj(Y0, kbar, A, Q))
            else:
                # recompute internal stages of the forward RK4 step
                k1 = info_rhs(Y0, A, Q) + Uk
                Ya = Y0 + 0.5 * h * k1
                k2 = info_rhs(Ya, A, Q) + Uk
                Yb = Y0 + 0.5 * h * k2
                k3 = info_rhs(Yb, A, Q) + Uk
                Yc = Y0 + h * k3

                kb4 = (h / 6.0) * Lam
                ycbar = _info_df_adj(Yc, kb4, A, Q)
                kb3 = (h / 3.0) * Lam + h * ycbar
                ybbar = _info_df_adj(Yb, kb3, A, Q)
                kb2 = (h / 3.0) * Lam + 0.5 * h * ybbar
                yabar = _info_df_adj(Ya, kb2, A, Q)
                kb1 = (h / 6.0) * Lam + 0.5 * h * yabar
                acc += kb1 + kb2 + kb3 + kb4
                Lam = _sym(Lam + ycbar + ybbar + yabar
                           + _info_df_adj(Y0, kb1, A, Q))
            if i > 0 and w_hat is not None:
                Pi = _sym(np.linalg.inv(values[i]))
                Lam = Lam - _sym(Pi @ w_hat[i] @ Pi)
        G[k] = np.tensordot(S_stack, acc, axes=([1, 2], [0, 1]))
    return G


def _cov_sensor_cache(P, sensors):
    # per sensor: decrement g = P H' M^{-1} H P and B = H' M^{-1} H P
    gs, Bs = [], []
    for s in sensors:
        HP = s.H @ P
        Mj = HP @ s.H.T + s.R
        sol = np.linalg.solve(Mj, HP)
        gs.append(_sym(HP.T @ sol))
        Bs.append(s.H.T @ sol)
    return gs, Bs


def _cov_df_adj(L, A, lam_row, Bs):
    out = A.T @ L + L @ A
    for j in range(len(Bs)):
        lam = lam_row[j]
        if lam != 0.0:
            BL = Bs[j] @ L
            out = out - lam * (BL + BL.T - BL @ Bs[j].T)
    return out


def _grad_cov(problem: ShootingProblem, traj, rates):
    inst = problem.instance
    sys = inst.system
    A, Q = sys.A, sys.Q
    sensors = inst.sensors
    N, S = problem.N, problem.substeps
    values = traj.values
    h = inst.T / (N * S)
    w_hat = quadrature_weights(traj.times, inst.weights)

    Wterm = inst.weights.W_T if w_hat is None else inst.weights.W_T + w_hat[-1]
    Lam = _sym(np.array(Wterm))
    G = np.zeros((N, problem.M))
    euler = problem.scheme == "euler"
    for k in range(N - 1, -1, -1):
        lam_row = rates[k]
        for s in range(S - 1, -1, -1):
            i = k * S + s
            P0 = values[i]
            if euler:
                g0, B0 = _cov_sensor_cache(P0, sensors)
                kbar = h * Lam
                for j in range(problem.M):
                    G[k, j] -= np.tensordot(kbar, g0[j], axes=2)
                Lam = _sym(Lam + _cov_df_adj(kbar, A, lam_row, B0))
            else:
                g0, B0 = _cov_sensor_cache(P0, sensors)
                k1 = cov_rate_rhs(P0, A, Q, lam_row, g0.__getitem__)
                Ya = P0 + 0.5 * h * k1
                ga, Ba = _cov_sensor_cache(Ya, sensors)
                k2 = cov_rate_rhs(Ya, A, Q, lam_row, ga.__getitem__)
                Yb = P0 + 0.5 * h * k2
                gb, Bb = _cov_sensor_cache(Yb, sensors)
                k3 = cov_rate_rhs(Yb, A, Q, lam_row, gb.__getitem__)
                Yc = P0 + h * k3
                gc, Bc = _cov_sensor_cache(Yc, sensors)

                kb4 = (h / 6.0) * Lam
                ycbar = _cov_df_adj(kb4, A, lam_row, Bc)
                kb3 = (h / 3.0) * Lam + h * ycbar
                ybbar = _cov_df_adj(kb3, A, lam_row, Bb)
                kb2 = (h / 3.0) * Lam + 0.5 * h * ybbar
                yabar = _cov_df_adj(kb2, A, lam_row, Ba)
                kb1 = (h / 6.0) * Lam + 0.5 * h * yabar
                for j in range(problem.M):
                    G[k, j] -= (
                        np.tensordot(kb1, g0[j], axes=2)
                        + np.tensordot(kb2, ga[j], axes=2)
                        + np.tensordot(kb3, gb[j], axes=2)
                        + np.tensordot(kb4, gc[j], axes=2)
                    )
                Lam = _sym(Lam + ycbar + ybbar + yabar
                           + _cov_df_adj(kb1, A, lam_row, B0))
            if i > 0 and w_hat is not None:
                Lam = Lam + w_hat[i]
    return G


def objective_and_gradient(
    problem: ShootingProblem, rates: np.ndarray
) -> tuple[float, np.ndarray]:
    """Objective and its exact gradient with respect to every rate entry.

    rates must be elementwise nonnegative; polytope feasibility is not
    required for evaluation.
    """
    J, sched, traj = _forward(problem, rates)
    return J, _gradient(problem, sched, traj)


def _forward(problem: ShootingProblem, rates: np.ndarray):
    # objective, schedule and trajectory: everything the adjoint consumes
    sched = problem.schedule(rates)
    inst = problem.instance
    traj = surrogate_trajectory(inst, sched, problem.kind, problem.substeps,
                                problem.scheme)
    return cost_of_trajectory(traj, inst.weights, inst.T), sched, traj


def _gradient(problem: ShootingProblem, sched: Schedule, traj) -> np.ndarray:
    if problem.kind == "info":
        return _grad_info(problem, traj, stage_increments(problem.instance, sched))
    return _grad_cov(problem, traj, sched.rates)


# ---------------------------------------------------------------------------
# projections


def _project_budget_simplex(v: np.ndarray, budget: float) -> np.ndarray:
    """Exact projection onto {x >= 0, sum x <= budget} in O(M log M)."""
    w = np.maximum(v, 0.0)
    if w.sum() <= budget:
        return w
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - budget
    idx = np.arange(1, v.size + 1)
    # the largest entry always qualifies, but its test u - (u - budget) > 0
    # is false at budget 0 (and can round to false at a tiny budget); with
    # rho = 1 the result is v - max(v), clipped: exactly zero at budget 0
    active = idx[u - css / idx > 0]
    rho = active[-1] if active.size else 1
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _dykstra(v, C, b, tol, max_iters):
    """Dykstra's alternating projections over the halfspaces and the orthant."""
    K = C.shape[0]
    x = np.maximum(v, 0.0)
    incr = np.zeros((K + 1, v.size))
    row_sq = np.einsum("ij,ij->i", C, C)
    for _ in range(max_iters):
        x_prev = x.copy()
        for s in range(K + 1):
            y = x + incr[s]
            if s == 0:
                x = np.maximum(y, 0.0)
            else:
                c = C[s - 1]
                viol = float(c @ y) - b[s - 1]
                x = y - (viol / row_sq[s - 1]) * c if viol > 0.0 else y
            incr[s] = y - x
        if np.max(np.abs(x - x_prev)) <= tol:
            return x
    raise ProjectionError(
        f"Dykstra projection did not reach tol={tol:g} in {max_iters} iterations"
    )


def project_stage(
    v: np.ndarray,
    polytope: ResourcePolytope,
    tol: float = 1e-10,
    max_iters: int = 10_000,
) -> np.ndarray:
    """Euclidean projection of one stage's rates onto the admissible set."""
    v = np.asarray(v, dtype=float)
    C, b = polytope.C, polytope.b
    if C.shape[0] == 1 and C[0, 0] > 0 and np.all(C[0] == C[0, 0]):
        return _project_budget_simplex(v, b[0] / C[0, 0])
    return _dykstra(v, C, b, tol, max_iters)


def project_schedule(rates: np.ndarray, polytope: ResourcePolytope) -> np.ndarray:
    out = np.empty_like(rates)
    for k in range(rates.shape[0]):
        out[k] = project_stage(rates[k], polytope)
    return out


def centered_rates(polytope: ResourcePolytope, N: int) -> np.ndarray:
    """Uniform interior start: half the largest feasible uniform rate."""
    rowsum = polytope.C @ np.ones(polytope.n_sensors)
    pos = rowsum > 0
    t_star = float(np.min(polytope.b[pos] / rowsum[pos]))
    return np.full((N, polytope.n_sensors), 0.5 * t_star)


# ---------------------------------------------------------------------------
# solver


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 500
    grad_tol: float = 1e-6
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 40
    bb_min: float = 1e-8
    bb_max: float = 1e8


@dataclass
class SolveReport:
    """Solution plus convergence and timing diagnostics."""

    schedule: Schedule
    objective: float
    iterations: int
    pg_norm: float
    converged: bool
    history: list[float]
    timings: dict = field(default_factory=dict)

    def to_dict(self, include_timings: bool = True) -> dict:
        timings = self.timings if include_timings else \
            {k: (0.0 if not isinstance(v, list) else [0.0] * len(v))
             for k, v in self.timings.items()}
        return {
            "schedule": schedule_to_dict(self.schedule),
            "objective": self.objective,
            "iterations": self.iterations,
            "pg_norm": self.pg_norm,
            "converged": self.converged,
            "history": list(self.history),
            "timings": timings,
        }


def _pg_norm(lam, G, polytope):
    step = lam - project_schedule(lam - G, polytope)
    return float(np.linalg.norm(step)) / math.sqrt(lam.size)


def solve(
    problem: ShootingProblem,
    initial="centered",
    options: SolveOptions | None = None,
) -> SolveReport:
    """Projected-gradient descent on the surrogate objective.

    Stops when the projected-gradient norm ||lam - proj(lam - grad)||_F /
    sqrt(N M) drops below grad_tol or after max_iters accepted steps.  The
    returned schedule is the best feasible iterate seen; the objective
    history holds the accepted (monotone) values.
    """
    opts = options or SolveOptions()
    inst = problem.instance
    polytope = inst.polytope
    if isinstance(initial, str):
        if initial != "centered":
            raise ValidationError(f"unknown initial point {initial!r}")
        lam = centered_rates(polytope, problem.N)
    else:
        lam = project_schedule(np.asarray(initial, dtype=float), polytope)

    t_start = time.perf_counter()
    timings = {"forward_s": 0.0, "gradient_assembly_s": 0.0, "projection_s": 0.0}
    per_iter: list[dict] = []

    def timed(key, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            timings[key] += time.perf_counter() - t0

    J, sched, traj = timed("forward_s", _forward, problem, lam)
    G = timed("gradient_assembly_s", _gradient, problem, sched, traj)
    history = [J]
    best_J, best_lam = J, lam
    gamma = min(max(1.0 / max(float(np.abs(G).max()), 1e-12), opts.bb_min),
                opts.bb_max)
    prev_lam = prev_G = None
    iterations = 0
    converged = False
    pg = _pg_norm(lam, G, polytope)

    for _ in range(opts.max_iters):
        iter_t0 = time.perf_counter()
        if pg <= opts.grad_tol:
            converged = True
            break
        if prev_lam is not None:
            dl = lam - prev_lam
            dg = G - prev_G
            den = float(np.vdot(dl, dg))
            if den > 0.0:
                gamma = float(np.vdot(dl, dl)) / den
            else:
                gamma = 2.0 * gamma
            gamma = min(max(gamma, opts.bb_min), opts.bb_max)

        accepted = False
        g_try = gamma
        trial = lam
        for _bt in range(opts.max_backtracks):
            trial = timed("projection_s", project_schedule, lam - g_try * G,
                          polytope)
            d = trial - lam
            if float(np.linalg.norm(d)) <= 1e-15 * (1.0 + float(np.linalg.norm(lam))):
                break
            try:
                J_trial, sched, traj = timed("forward_s", _forward, problem,
                                             trial)
            except PositiveDefinitenessError:
                J_trial = math.inf     # failed trial, not a crash
            if J_trial <= J + opts.armijo_c1 * float(np.vdot(G, d)):
                accepted = True
                break
            g_try *= opts.backtrack
        if not accepted:
            break

        # the accepted trial's forward pass feeds the adjoint directly
        prev_lam, prev_G = lam, G
        lam = trial
        gamma = g_try
        J = J_trial
        G = timed("gradient_assembly_s", _gradient, problem, sched, traj)
        pg = _pg_norm(lam, G, polytope)
        history.append(J)
        iterations += 1
        if J < best_J:
            best_J, best_lam = J, lam
        per_iter.append({
            "iteration": iterations,
            "objective": J,
            "step": g_try,
            "seconds": time.perf_counter() - iter_t0,
        })
    else:
        converged = pg <= opts.grad_tol

    timings["total_s"] = time.perf_counter() - t_start
    timings["per_iteration"] = per_iter
    return SolveReport(
        schedule=problem.schedule(best_lam),
        objective=best_J,
        iterations=iterations,
        pg_norm=pg,
        converged=converged,
        history=history,
        timings=timings,
    )


# ---------------------------------------------------------------------------
# verification helpers


def gradient_check(
    problem: ShootingProblem,
    rates: np.ndarray,
    fd_step: float = 1e-5,
    gradient_fn=None,
) -> float:
    """Max relative error between the adjoint gradient and central differences.

    Uses per-entry steps h = fd_step * (1 + |rate|); every rate must exceed
    its own step so the stencil stays in the admissible orthant.  gradient_fn
    defaults to objective_and_gradient; tests can inject a corrupted one as a
    negative control.
    """
    if gradient_fn is None:
        gradient_fn = objective_and_gradient
    rates = np.asarray(rates, dtype=float)
    J0, G = gradient_fn(problem, rates)
    steps = fd_step * (1.0 + np.abs(rates))
    if np.any(rates - steps < 0.0):
        raise ValidationError(
            "gradient_check needs an interior point: every rate must exceed "
            "its finite-difference step"
        )
    gmax = max(float(np.abs(G).max()), 1e-12)
    worst = 0.0
    for k in range(rates.shape[0]):
        for j in range(rates.shape[1]):
            h = steps[k, j]
            up = rates.copy()
            up[k, j] += h
            dn = rates.copy()
            dn[k, j] -= h
            fd = (objective(problem, up) - objective(problem, dn)) / (2.0 * h)
            denom = max(abs(fd), abs(G[k, j]), 1e-9 * max(1.0, gmax))
            worst = max(worst, abs(fd - G[k, j]) / denom)
    return worst


@dataclass(frozen=True)
class BenchmarkResult:
    """Median assembly timings of the two surrogate kinds at one point."""

    repetitions: int
    forward_s: dict
    gradient_s: dict
    ratio: float              # cov / info gradient-assembly medians
    samples: dict


def benchmark_assembly(
    instance: Instance,
    N: int = 30,
    repetitions: int = 10,
    substeps: int = 10,
    scheme: str = "rk4",
    rates: np.ndarray | None = None,
) -> BenchmarkResult:
    """Wall-time comparison of objective_and_gradient for both kinds.

    Both kinds are evaluated at the identical rate table (the centered point
    by default).  One untimed warmup precedes the measured repetitions; runs
    are sequential and single-threaded.
    """
    if rates is None:
        rates = centered_rates(instance.polytope, N)
    forward_med, gradient_med, samples = {}, {}, {}
    for kind in KINDS:
        problem = ShootingProblem(instance=instance, N=N, kind=kind,
                                  substeps=substeps, scheme=scheme)
        objective_and_gradient(problem, rates)   # warmup, excluded
        fwd, grad = [], []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            objective(problem, rates)
            fwd.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            objective_and_gradient(problem, rates)
            grad.append(time.perf_counter() - t0)
        forward_med[kind] = float(np.median(fwd))
        gradient_med[kind] = float(np.median(grad))
        samples[kind] = {"forward": fwd, "gradient": grad}
    return BenchmarkResult(
        repetitions=repetitions,
        forward_s=forward_med,
        gradient_s=gradient_med,
        ratio=gradient_med["cov"] / gradient_med["info"],
        samples=samples,
    )


__all__ = [
    "BenchmarkResult",
    "ProjectionError",
    "ShootingProblem",
    "SolveOptions",
    "SolveReport",
    "benchmark_assembly",
    "centered_rates",
    "gradient_check",
    "objective",
    "objective_and_gradient",
    "project_schedule",
    "project_stage",
    "solve",
]
