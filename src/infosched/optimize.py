"""Schedule optimization by single shooting with an exact discrete adjoint.

The decision variable is the full rate table lam (N stages x M sensors).  In
the information form a forward pass steps the surrogate by its exact stage
maps: one exponential of a 2n Hamiltonian block per stage, then a
linear-fractional map per step (riccati.hamiltonian_maps).  The gradient is
that map's closed-form adjoint, summed over a stage's steps and carried
back through the forward's own exponential: its scaling-and-squaring loop
run in reverse on the powers the forward kept (riccati.expm's pullback),
so the rates enter only through U_k = sum_j lam_kj S_j.  Only the carried
adjoint runs step by step; every other product of the sweep is batched
over the recorded path, before it or after it.  The two step-by-step
loops, the forward's map steps and the adjoint's carry, solve their n x n
systems by LAPACK's dgesv gufunc directly (_solve): the routine
np.linalg.solve runs, so the same floats, without the per-call wrapper
that cost more than the solve itself.  The covariance form
integrates at substep resolution with RK4 and reverses each step.  Stage
by stage, it replays the RK4 points of all the stage's steps from the
recorded nodes in four batched factors calls of the riccati.cov_gains
kernels, and carries the adjoint through each point's rank-p factors,
M p n^2 per point with no (M, n, n) stack.  When every sensor has p = 1
the kernels run on the flat (M, n) sensor rows: one GEMM per stage point,
and a row-wise dot per sensor in the vjp, instead of M tiny matrix
products.  No ODE is solved backwards, so either gradient matches central
differences to roundoff rather than to integrator tolerance.

Descent is projected gradient with a Barzilai-Borwein step, safeguarded by
monotone Armijo backtracking on the projection arc.  Losing positive
definiteness at a trial point counts as a failed trial, never as a crash.
A single constraint row is projected exactly, every stage of the table in
one batched O(M log M) kernel; coupled rows take Dykstra's alternating
projections, stage by stage.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.linalg import _umath_linalg

from .model import (
    Instance,
    ResourcePolytope,
    Schedule,
    ValidationError,
    _check_pair,
    _count,
    _sym,
    schedule_to_dict,
)
from .riccati import (
    INFO,
    PositiveDefinitenessError,
    Trajectory,
    _rk4_reverse,
    _rk4_stages,
    cov_gains,
    cov_rhs,
    hamiltonian_maps,
    node_weights,
    pathwise_cost,
    require_pd,
    time_grid,
)
from .surrogate import (
    KINDS,
    integrate_cov_surrogate,
    stage_increments,
)


_solve = _umath_linalg.solve
"""X = A^{-1} B for one or a stack of square systems: LAPACK's dgesv, the
gufunc np.linalg.solve itself calls on the same arrays, so it gives the same
floats.  The info form's two step-by-step loops (_info_forward's map step
and _info_gradient's carry) call it directly: on a 5 x 5 system the
wrapper's argument coercion, type resolution and errstate context took
about 6 of np.linalg.solve's 10 us per call (2-core Xeon, numpy 2.4), and
a design solve makes some 20,000 such calls in sequence.  Unlike the
wrapper it does not raise on a singular system: LAPACK's solution is
filled with NaN, and the floating-point error state decides whether that
warns, so each caller checks for it.  np.linalg.solve stays the bitwise
reference of the tests that replay these loops step by step.  The module
is private to numpy, and every numpy >= 2.0 has it."""


class ProjectionError(RuntimeError):
    """Dykstra's iteration failed to converge within the cap, or a solver
    trial's projected rates are not a valid rate table."""


@dataclass(frozen=True)
class ShootingProblem:
    """Surrogate objective as a function of the (N, M) rate table."""

    instance: Instance
    N: int
    kind: str = "info"
    substeps: int = 10     # steps per stage; info: the running-weight grid

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "N", _count(self.N, "N"))
        object.__setattr__(self, "substeps", _count(self.substeps, "substeps"))

    @property
    def M(self) -> int:
        return self.instance.M

    def schedule(self, rates: np.ndarray) -> Schedule:
        return Schedule(N=self.N, T=self.instance.T, rates=rates)


def objective(problem: ShootingProblem, rates: np.ndarray) -> float:
    """Forward pass only; exactly the discretized surrogate objective."""
    return _forward(problem, rates)[0]


# ---------------------------------------------------------------------------
# information form: exact stage maps
#
# U_k is constant on stage k, so the info surrogate has an exact step map
# there (riccati.hamiltonian_maps): one exponential per stage, and each step
# a linear-fractional map Y+ = (C + D Y) Z^{-1} with Z = E + F Y.  Y(T) does
# not depend on the step count, so with a terminal weight alone a stage is
# one step (split further only when the input is stiff); running weights
# need the N * substeps + 1 nodes of the trapezoid rule.


def _info_forward(instance: Instance, sched: Schedule, substeps: int):
    """Exact info surrogate path and what its adjoint reuses: the stage
    maps' pullback to U_k, the stage maps and every step's state."""
    _check_pair(instance, sched)
    sys = instance.system
    n, N = sys.n, sched.N
    nodes = 1 if instance.weights.W_stages is None else substeps
    # a non-finite map is reported by the node check below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        U_pullback, Phi, m = hamiltonian_maps(
            sys.A, sys.Q, stage_increments(instance, sched),
            sched.delta / nodes)
        steps = nodes * m           # map steps per stage
        # [E + F Y; C + D Y] is one product: left + right @ Y
        left, right = Phi[:, :, :n], Phi[:, :, n:]
        path = np.empty((N * steps + 1, n, n))
        Y = path[0] = _sym(np.linalg.inv(sys.P0))
        for k in range(N):
            lk, rk = left[k], right[k]
            for s in range(1, steps + 1):
                ZC = lk + rk @ Y
                # Y+ = (C + D Y) Z^{-1}, transposed: Z^{-T} (C + D Y)^T
                X = _solve(ZC[:n].T, ZC[n:].T)
                Y = path[k * steps + s] = 0.5 * (X + X.T)
                # LAPACK fills a singular system's solution with NaN; a
                # non-finite map is reported by the node check below
                x = Y[0, 0]
                if x != x and np.isfinite(ZC).all():
                    raise PositiveDefinitenessError(
                        f"singular step map in info surrogate stage {k}")
    values = path[::m]
    times = time_grid(instance.T, N * nodes)
    require_pd(values, lambda i: f"in info surrogate at t={times[i]:g}")
    return Trajectory._checked(INFO, times, values), (U_pullback, Phi, path)


def _info_gradient(problem: ShootingProblem, traj, maps) -> np.ndarray:
    # reverse sweep over the steps of the forward path: step i carries the
    # adjoint back as K_i = Lam_{i+1} Z_i^{-T}, Lam_i = sym(Dt_i K_i), with
    # Z_i = E + F Y_i and Dt_i = (D - Y_{i+1} F)^T.  Only that carry runs
    # step by step: Z_i and Dt_i are batched before it, and the stage maps'
    # block adjoints (Ebar = -sum Y_{i+1} K_i, Fbar = -sum Y_{i+1} K_i Y_i,
    # Cbar = sum K_i, Dbar = sum K_i Y_i over a stage's steps) after it.
    # Then the exponential's pullback, which hamiltonian_maps chains to U_k
    inst = problem.instance
    U_pullback, Phi, path = maps
    n, N = inst.n, problem.N
    steps = (len(path) - 1) // N
    m = (len(path) - 1) // (len(traj.times) - 1)     # map steps per node
    table = node_weights(traj.times, inst.weights)
    running = inst.weights.W_stages is not None
    # a weighted node enters d<W, Y^{-1}> = <-P W P, dY>, P = Y^{-1}
    P = _sym(np.linalg.inv(path[-1]))
    Lam = -_sym(P @ table[-1] @ P)
    if running:
        P = _sym(np.linalg.inv(traj.values))
        node = -_sym(P @ table @ P)
    # each step's Y_i and Y_{i+1}, and its stage's blocks, by stage
    Y0 = path[:-1].reshape(N, steps, n, n)
    Y1 = path[1:].reshape(N, steps, n, n)
    E, F, D = Phi[:, None, :n, :n], Phi[:, None, :n, n:], Phi[:, None, n:, n:]
    Z = (E + F @ Y0).reshape(-1, n, n)
    Dt = (D - Y1 @ F).reshape(-1, n, n).swapaxes(1, 2)
    Kt = np.empty_like(Z)                   # K_i^T = Z_i^{-1} Lam_{i+1}
    # Z_i is the matrix the forward's step solved with, so LAPACK's NaN
    # fill of a singular one is not expected here; if it comes, the check
    # after the sweep reports it
    with np.errstate(invalid="ignore"):
        for i in range(len(Z) - 1, -1, -1):
            kt = Kt[i] = _solve(Z[i], Lam)
            L = Dt[i] @ kt.T
            Lam = 0.5 * (L + L.T)
            if i > 0 and running and i % m == 0:
                Lam = Lam + node[i // m]
    finite = np.isfinite(Kt).all(axis=(1, 2))
    if not finite.all():
        k = np.flatnonzero(~finite).max() // steps     # where the sweep met it
        raise PositiveDefinitenessError(
            f"non-finite adjoint in info surrogate stage {k}")
    K = Kt.swapaxes(1, 2).reshape(N, steps, n, n)
    YK = Y1 @ K

    def total(x):       # over a stage's steps, in the order the sweep met them
        return x[:, ::-1].sum(axis=1)

    bar = np.empty_like(Phi)    # adjoint of each stage map, block by block
    bar[:, :n, :n] = -total(YK)
    bar[:, :n, n:] = -total(YK @ Y0)
    bar[:, n:, :n] = total(K)
    bar[:, n:, n:] = total(K @ Y0)
    return np.tensordot(U_pullback(bar), inst.S, axes=([1, 2], [1, 2]))


# ---------------------------------------------------------------------------
# covariance form: reverse sweep through the RK4 steps
#
# A rate enters through the gain update g_j(P) = sym(HP_j^T sol_j), so every
# stage point carries the factors of all sensors (a zero rate still has a
# gradient, -<kbar, g_j>).  With At = A^T - sum_j lam_j H_j^T sol_j, the
# rate's transposed Jacobian at P is, in M p n^2,
#
#     vjp(L) = At L + L At^T + sum_j lam_j H_j^T (sol_j L sol_j^T) H_j.
#
# At p = 1 the last sum is rows^T (c rows), c_j = rowdot(lam_sol_j L, sol_j)
# (riccati.RowGains.gain_vjp).
#
# A weighted node enters W.


def _cov_stage_points(A, Q, gains, lam, x, h):
    """The four RK4 stage points' (rate, HP, sol, lam sol, At) of the steps
    from each of the stacked inputs x, each stacked over the steps: four
    batched factors calls of the riccati.cov_gains kernels gains over every
    sensor, each one GEMM of the flat p = 1 rows against the stack.  A
    non-finite point passes through without a warning, as in the forward.
    """

    def linearize(P):
        HP, sol, lam_sol = gains.factors(P, lam)
        At = A.T - gains.rows.T @ lam_sol
        G = HP.swapaxes(-1, -2) @ lam_sol
        return cov_rhs(P, A, Q, G), HP, sol, lam_sol, At

    with np.errstate(over="ignore", invalid="ignore"):
        return _rk4_stages(x, h, linearize)


def _cov_vjp(gains, At, lam_sol, sol, L):
    """vjp(L) of the cov rate at one stage point: At, lam_sol and sol are
    the point's, gains its riccati.cov_gains kernels."""
    AL = At @ L
    return AL + AL.T + gains.gain_vjp(lam_sol, sol, L)


def _cov_gradient(problem: ShootingProblem, sched: Schedule, traj):
    # reverse sweep over the substeps of the forward trajectory traj, each
    # stage's points replayed from its recorded nodes
    inst = problem.instance
    A, Q = inst.system.A, inst.system.Q
    gains = cov_gains(inst.H, inst.R)
    N, S, M, n = problem.N, problem.substeps, problem.M, inst.n
    h = inst.T / (N * S)
    table = node_weights(traj.times, inst.weights)
    running = inst.weights.W_stages is not None

    Lam = _sym(table[-1])
    G = np.zeros((N, M))
    kbar = np.empty((4, S, n, n))
    for k in range(N - 1, -1, -1):
        points = _cov_stage_points(A, Q, gains, sched.rates[k],
                                   traj.values[k * S:(k + 1) * S], h)
        for s in range(S - 1, -1, -1):
            vjps = [partial(_cov_vjp, gains, At[s], lam_sol[s], sol[s])
                    for _, _, sol, lam_sol, At in points]
            Lam, kbar[:, s] = _rk4_reverse(h, vjps, Lam)
            if running and k * S + s > 0:
                Lam = Lam + table[k * S + s]
        # <kbar, g_j> at every step and stage point, g_j = HP_j^T sol_j:
        # the rowdot of HP kbar and sol, summed over each sensor's rows
        for (_, HP, sol, _, _), kb in zip(points, kbar):
            G[k] -= np.vecdot(HP @ kb, sol).reshape(S, M, -1).sum(axis=(0, 2))
    return G


def _forward(problem: ShootingProblem, rates: np.ndarray):
    # objective, schedule, trajectory and (info kind) the stage maps: what
    # the adjoint consumes
    sched = problem.schedule(rates)
    inst = problem.instance
    if problem.kind == "info":
        traj, maps = _info_forward(inst, sched, problem.substeps)
    else:
        traj = integrate_cov_surrogate(inst, sched, problem.substeps)
        maps = None
    return pathwise_cost(traj, inst.weights, inst.T), sched, traj, maps


def _gradient(problem: ShootingProblem, sched: Schedule, traj, maps):
    if problem.kind == "info":
        return _info_gradient(problem, traj, maps)
    return _cov_gradient(problem, sched, traj)


def objective_and_gradient(
    problem: ShootingProblem, rates: np.ndarray
) -> tuple[float, np.ndarray]:
    """Objective and its exact gradient with respect to every rate entry.

    rates must be elementwise nonnegative; polytope feasibility is not
    required for evaluation.
    """
    J, sched, traj, maps = _forward(problem, rates)
    return J, _gradient(problem, sched, traj, maps)


# ---------------------------------------------------------------------------
# projections


def _project_row(V: np.ndarray, c: np.ndarray, beta: float) -> np.ndarray:
    """Exact projection of every row of V onto {x >= 0, c.x <= beta}, c > 0.

    A row outside the budget maps to max(v - theta c, 0), theta cut from the
    breakpoints v / c sorted in descending order.  At c = 1 every float
    operation is the one-row simplex projection's, whatever the row count.
    """
    if beta == 0.0:     # the set is {0}; a sorted cut would leave roundoff
        return np.zeros_like(V)
    W = np.maximum(V, 0.0)
    inside = (c * W).sum(axis=1) <= beta
    order = np.argsort(-(V / c), axis=1)
    v, cs = np.take_along_axis(V, order, axis=1), c[order]
    ratio = (np.cumsum(cs * v, axis=1) - beta) / np.cumsum(cs * cs, axis=1)
    # rho: the last active breakpoint, or the first when a tiny budget
    # rounds its test to false
    idx = np.arange(1, V.shape[1] + 1)
    rho = np.max(np.where(v / cs - ratio > 0, idx, 1), axis=1)
    theta = np.take_along_axis(ratio, rho[:, None] - 1, axis=1)
    return np.where(inside[:, None], W, np.maximum(V - theta * c, 0.0))


DYKSTRA_TOL = 1e-10         # converged once a sweep moves no rate further
DYKSTRA_MAX_ITERS = 10_000  # sweeps before a ProjectionError


def _dykstra(v, C, b):
    """Dykstra's alternating projections over the halfspaces and the orthant."""
    K = C.shape[0]
    x = np.maximum(v, 0.0)
    incr = np.zeros((K + 1, v.size))
    row_sq = np.einsum("ij,ij->i", C, C)
    for _ in range(DYKSTRA_MAX_ITERS):
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
        if np.max(np.abs(x - x_prev)) <= DYKSTRA_TOL:
            return x
    raise ProjectionError(
        f"Dykstra projection did not reach tol={DYKSTRA_TOL:g} in "
        f"{DYKSTRA_MAX_ITERS} iterations"
    )


def project_schedule(rates: np.ndarray, polytope: ResourcePolytope) -> np.ndarray:
    """Euclidean projection of every stage of the rate table onto the
    admissible set: a single row in one exact call scaled to c_0 = 1 (so
    equal coefficients are exactly 1), coupled rows by Dykstra, stage by
    stage."""
    C, b = polytope.C, polytope.b
    if C.shape[0] == 1:
        return _project_row(rates, C[0] / C[0, 0], b[0] / C[0, 0])
    return np.stack([_dykstra(v, C, b) for v in rates])


def centered_rates(polytope: ResourcePolytope, N: int) -> np.ndarray:
    """Uniform interior start: half the largest feasible uniform rate."""
    rowsum = polytope.C @ np.ones(polytope.n_sensors)
    pos = rowsum > 0
    t_star = float(np.min(polytope.b[pos] / rowsum[pos]))
    return np.full((_count(N, "N"), polytope.n_sensors), 0.5 * t_star)


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

    def __post_init__(self):
        object.__setattr__(self, "max_iters",
                           _count(self.max_iters, "max_iters", least=0))
        if not (math.isfinite(self.grad_tol) and self.grad_tol >= 0):
            raise ValidationError(
                f"grad_tol must be finite and >= 0, got {self.grad_tol!r}")


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
            {k: ([dict(it, seconds=0.0) for it in v] if isinstance(v, list)
                 else 0.0) for k, v in self.timings.items()}
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
    options: SolveOptions | None = None,
) -> SolveReport:
    """Projected-gradient descent on the surrogate objective.

    Starts at the centered rates.  Stops when the projected-gradient norm
    ||lam - proj(lam - grad)||_F / sqrt(N M) drops below grad_tol or after
    max_iters accepted steps.  The returned schedule is the last accepted
    iterate, which monotone Armijo acceptance makes the best one seen (of
    tied values, the latest); the objective history holds the accepted
    values.
    """
    opts = options or SolveOptions()
    inst = problem.instance
    polytope = inst.polytope
    lam = centered_rates(polytope, problem.N)

    t_start = time.perf_counter()
    timings = {"forward_s": 0.0, "gradient_assembly_s": 0.0, "projection_s": 0.0}
    per_iter: list[dict] = []

    def timed(key, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            timings[key] += time.perf_counter() - t0

    J, sched, traj, maps = timed("forward_s", _forward, problem, lam)
    G = timed("gradient_assembly_s", _gradient, problem, sched, traj, maps)
    history = [J]
    gamma = min(max(1.0 / max(float(np.abs(G).max()), 1e-12), BB_MIN), BB_MAX)
    prev_lam = prev_G = None
    iterations = 0
    pg = timed("projection_s", _pg_norm, lam, G, polytope)

    for _ in range(opts.max_iters):
        iter_t0 = time.perf_counter()
        if pg <= opts.grad_tol:
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
                J_trial, sched, traj, maps = timed("forward_s", _forward,
                                                   problem, trial)
            except PositiveDefinitenessError:
                J_trial = math.inf     # failed trial, not a crash
            except ValidationError as exc:   # the projection's roundoff
                raise ProjectionError(f"projected trial rates: {exc}") from None
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
        G = timed("gradient_assembly_s", _gradient, problem, sched, traj,
                  maps)
        pg = timed("projection_s", _pg_norm, lam, G, polytope)
        history.append(J)
        iterations += 1
        per_iter.append({
            "iteration": iterations,
            "objective": J,
            "step": g_try,
            "seconds": time.perf_counter() - iter_t0,
        })

    timings["total_s"] = time.perf_counter() - t_start
    timings["per_iteration"] = per_iter
    return SolveReport(
        schedule=problem.schedule(lam),
        objective=J,
        iterations=iterations,
        pg_norm=pg,
        converged=pg <= opts.grad_tol,
        history=history,
        timings=timings,
    )


# ---------------------------------------------------------------------------
# verification helpers


def gradient_check(
    problem: ShootingProblem,
    rates: np.ndarray,
    fd_step: float = 1e-3,
) -> float:
    """Max relative error between the adjoint gradient and finite differences.

    Uses the five-point central stencil, (8 (J(+h) - J(-h)) - (J(+2h) -
    J(-2h))) / 12h, with per-entry steps h = fd_step * (1 + |rate|),
    fd_step finite and positive; every rate must exceed twice its own step
    so the stencil stays in the admissible orthant.  Its truncation error
    is O(h^4), so the step can be large enough that the differences'
    roundoff, which grows as |J| eps / h, stays far below the tolerance
    even when J is thousands of times its gradient; each entry's error is
    still relative to that entry.  A non-finite comparison counts as an
    infinite error.
    """
    if not (math.isfinite(fd_step) and fd_step > 0.0):
        raise ValidationError(f"fd_step must be finite and positive, got {fd_step}")
    rates = np.asarray(rates, dtype=float)
    _, G = objective_and_gradient(problem, rates)
    steps = fd_step * (1.0 + np.abs(rates))
    if np.any(rates - 2.0 * steps < 0.0):
        raise ValidationError(
            "gradient_check needs an interior point: every rate must exceed "
            "twice its finite-difference step"
        )
    gmax = max(float(np.abs(G).max()), 1e-12)
    worst = 0.0
    for k in range(rates.shape[0]):
        for j in range(rates.shape[1]):
            h = steps[k, j]
            J = []
            for c in (1.0, -1.0, 2.0, -2.0):
                x = rates.copy()
                x[k, j] += c * h
                J.append(objective(problem, x))
            fd = (8.0 * (J[0] - J[1]) - (J[2] - J[3])) / (12.0 * h)
            denom = max(abs(fd), abs(G[k, j]), 1e-9 * max(1.0, gmax))
            err = abs(fd - G[k, j]) / denom
            # max() would keep worst over a NaN
            worst = max(worst, err if math.isfinite(err) else math.inf)
    return worst


__all__ = [
    "ProjectionError",
    "ShootingProblem",
    "SolveOptions",
    "SolveReport",
    "centered_rates",
    "gradient_check",
    "objective",
    "objective_and_gradient",
    "project_schedule",
    "solve",
]
