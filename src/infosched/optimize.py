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
from functools import partial, reduce
from operator import add
from types import SimpleNamespace

import numpy as np

from .model import (
    Instance,
    ResourcePolytope,
    Schedule,
    ValidationError,
    _sym,
    schedule_to_dict,
)
from .riccati import (
    PositiveDefinitenessError,
    _scheme,
    info_rhs,
    quadrature_weights,
)
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
# adjoint sweep
#
# One reverse sweep serves both kinds through the scheme's reverse step.  A
# kind supplies the rest: its rate linearized at a stage point (point), a
# stage's gradient row from its stage-rate adjoints (collect, then row), and
# the adjoint that a weighted node enters (node).


class _InfoForm:
    """Information form: a rate enters through its constant increment S_j.

    d rate / d lam_kj = S_j at every stage point, so a stage's stage-rate
    adjoints are summed and contracted with the stacked S_j once per stage.
    A weighted node enters -P W P with P = Y^{-1}.
    """

    def __init__(self, inst, sched):
        self.A, self.Q = inst.system.A, inst.system.Q
        self.U = stage_increments(inst, sched)
        self.S = np.stack([s.S for s in inst.sensors])

    def point(self, k, Y):
        A, Q, Uk = self.A, self.Q, self.U[k]
        QY = Q @ Y
        # vjp: adjoint of V -> -VA - A^T V - VQY - YQV at symmetric L
        return SimpleNamespace(
            rate=lambda: info_rhs(Y, A, Q) + Uk,
            vjp=lambda L: -(A @ L + L @ A.T) - (QY @ L + L @ QY.T))

    def collect(self, stages):
        return reduce(add, (kbar for _, kbar in stages))

    def row(self, acc):
        return np.tensordot(self.S, acc, axes=([1, 2], [0, 1]))

    def node(self, Y, W):
        P = _sym(np.linalg.inv(Y))
        return -_sym(P @ W @ P)


class _CovForm:
    """Covariance form: a rate enters through the gain update g_j(P).

    d rate / d lam_kj = -g_j(P) depends on the state, so every stage point
    carries each sensor's g_j and B_j, and each stage-rate adjoint is
    contracted with the g_j of its own point.  A weighted node enters W.
    """

    def __init__(self, inst, sched):
        self.A, self.Q = inst.system.A, inst.system.Q
        self.sensors = inst.sensors
        self.rates = sched.rates

    def point(self, k, P):
        A, Q, lam_row = self.A, self.Q, self.rates[k]
        # per sensor: gain update g = P H' M^{-1} H P and B = H' M^{-1} H P
        g, B = [], []
        for s in self.sensors:
            HP = s.H @ P
            sol = np.linalg.solve(HP @ s.H.T + s.R, HP)
            g.append(_sym(HP.T @ sol))
            B.append(s.H.T @ sol)

        def vjp(L):
            out = A.T @ L + L @ A
            for lam, Bj in zip(lam_row, B):
                if lam != 0.0:
                    BL = Bj @ L
                    out = out - lam * (BL + BL.T - BL @ Bj.T)
            return out

        return SimpleNamespace(
            g=g, vjp=vjp,
            rate=lambda: cov_rate_rhs(P, A, Q, lam_row, g.__getitem__))

    def collect(self, stages):
        return np.array([
            -reduce(add, (np.tensordot(kbar, pt.g[j], axes=2)
                          for pt, kbar in stages))
            for j in range(len(self.sensors))])

    def row(self, acc):
        return acc

    def node(self, P, W):
        return W


def _gradient(problem: ShootingProblem, sched: Schedule, traj) -> np.ndarray:
    # reverse sweep over the substeps of the forward trajectory traj
    inst = problem.instance
    form = (_InfoForm if problem.kind == "info" else _CovForm)(inst, sched)
    _, reverse = _scheme(problem.scheme)
    N, S = problem.N, problem.substeps
    values = traj.values
    h = inst.T / (N * S)
    w_hat = quadrature_weights(traj.times, inst.weights)

    W_T = inst.weights.W_T
    Lam = _sym(form.node(values[-1], W_T if w_hat is None else W_T + w_hat[-1]))
    G = np.empty((N, problem.M))
    for k in range(N - 1, -1, -1):
        linearize = partial(form.point, k)
        acc = 0.0
        for s in range(S - 1, -1, -1):
            i = k * S + s
            Lam, stages = reverse(values[i], h, linearize, Lam)
            acc = acc + form.collect(stages)
            if i > 0 and w_hat is not None:
                Lam = Lam + form.node(values[i], w_hat[i])
        G[k] = form.row(acc)
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


ARMIJO_C1 = 1e-4        # sufficient-decrease constant of the line search
BACKTRACK = 0.5         # step shrink factor per failed trial
MAX_BACKTRACKS = 40
BB_MIN, BB_MAX = 1e-8, 1e8   # safeguard interval of the Barzilai-Borwein step


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 500
    grad_tol: float = 1e-6


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
    gamma = min(max(1.0 / max(float(np.abs(G).max()), 1e-12), BB_MIN), BB_MAX)
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
            gamma = min(max(gamma, BB_MIN), BB_MAX)

        accepted = False
        g_try = gamma
        trial = lam
        for _bt in range(MAX_BACKTRACKS):
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
            if J_trial <= J + ARMIJO_C1 * float(np.vdot(G, d)):
                accepted = True
                break
            g_try *= BACKTRACK
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
    rates: np.ndarray | None = None,
) -> BenchmarkResult:
    """Wall-time comparison of objective_and_gradient for both kinds.

    Both kinds are evaluated at the identical rate table (the centered point
    by default).  One untimed warmup per kind precedes the measured
    repetitions; runs are sequential and single-threaded.  The kinds
    alternate inside each repetition, so the two sides of the ratio are
    sampled at the same host speed.
    """
    if rates is None:
        rates = centered_rates(instance.polytope, N)
    problems = {kind: ShootingProblem(instance=instance, N=N, kind=kind,
                                      substeps=substeps) for kind in KINDS}
    samples = {kind: {"forward": [], "gradient": []} for kind in KINDS}
    for problem in problems.values():
        objective_and_gradient(problem, rates)   # warmup, excluded
    for _ in range(repetitions):
        for kind, problem in problems.items():
            t0 = time.perf_counter()
            objective(problem, rates)
            samples[kind]["forward"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            objective_and_gradient(problem, rates)
            samples[kind]["gradient"].append(time.perf_counter() - t0)
    forward_med = {k: float(np.median(v["forward"])) for k, v in samples.items()}
    gradient_med = {k: float(np.median(v["gradient"]))
                    for k, v in samples.items()}
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
