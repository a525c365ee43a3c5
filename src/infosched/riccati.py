"""Deterministic Riccati kernels shared by rollouts and surrogates.

Covariance coordinates evolve by the Lyapunov flow

    Pdot = A P + P A^T + Q

between measurement arrivals and drop by the gain update

    P+ = P - P H^T (H P H^T + R)^{-1} H P

at an arrival.  Information coordinates Y = P^{-1} obey the dual pair

    Ydot = -Y A - A^T Y - Y Q Y,        Y+ = Y + H^T R^{-1} H.

The filter rollouts step the linear Lyapunov flow by its exact maps, one
family per walk (``lyapunov_maps``: the Taylor coefficients of the Van Loan
block computed once, each map a polynomial in its duration, then doubled).
The optimizer steps the information flow with a constant input by its exact
linear-fractional map (``hamiltonian_maps``), and differentiates the
exponential behind it by the pullback ``expm`` returns: the forward's own
scaling-and-squaring loop run in reverse.  The remaining flows (the
certificates' surrogates, the covariance-form design path and the
``flow_*`` references) are integrated with one fixed-step scheme, classical
RK4, defined here once: its forward step paired with the step's exact
adjoint, which the optimizer's reverse sweep runs.  Every step
re-symmetrizes the state so roundoff cannot push iterates off the symmetric
cone, and positive definiteness is enforced against a scale-relative floor.
Losing it, or a non-finite entry, is a typed error, never silently
repaired; only the integrators, which have substeps to refine, suggest more
of them.

The objective of a path is one quadrature, defined here once:
``node_weights`` is the table of per-node weight matrices (trapezoid rule of
the running weight plus W_T on the last node), ``read_nodes`` the nodes it
weights, and ``pathwise_cost`` reduces a path in either coordinate system
with it.  The surrogate bounds, the Monte Carlo costs, the design objective
and both adjoint seeds read the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PD_FLOOR_REL, ValidationError, WeightSpec, _sym

SUBSTEP_ADVICE = "increase substeps"   # what an integrator's PD error suggests
RK4_REAL_LIMIT = 2.785  # RK4 is stable for real h * lambda in [-2.785, 0]
EXPM_DEGREE = 18       # Taylor degree; truncation below 1/19! ~ 8e-18 at norm 1
MAX_MAP_SPLIT = 1024   # most steps of an information map per step asked for

COV = "covariance"
INFO = "information"


class PositiveDefinitenessError(RuntimeError):
    """An integrated matrix lost positive definiteness."""


def pd_floor(x: np.ndarray):
    """Scale-relative positive definiteness floor of x, or of each in a stack."""
    n = x.shape[-1]
    return PD_FLOOR_REL * np.maximum(x.trace(axis1=-2, axis2=-1) / n, 1e-300)


def require_pd(x: np.ndarray, context="", advice="") -> None:
    """Raise if x is non-finite or its min eig is at or below the floor.

    x is a matrix or a stack of matrices, checked with one batched
    Cholesky; for a stack, context is a function of a matrix's index (by
    default the error says the index), and the error names the first
    matrix that fails.  advice, when given, ends the error message.
    """
    stack = x if x.ndim > 2 else x[None]    # a matrix is a stack of one
    with np.errstate(over="ignore", invalid="ignore"):   # non-finite: fails
        floor = pd_floor(stack)
        shifted = stack - floor[:, None, None] * np.eye(x.shape[-1])
    if _cholesky_passes(shifted):
        return
    for i in range(len(stack)):
        if _cholesky_passes(shifted[i]):
            continue
        if x.ndim > 2:
            context = context(i) if context else f"at index {i}"
        where = f" {context}" if context else ""
        tail = f"; {advice}" if advice else ""
        if not np.isfinite(stack[i]).all():
            raise PositiveDefinitenessError(
                f"matrix has non-finite entries{where}{tail}")
        m = float(np.linalg.eigvalsh(_sym(stack[i]))[0])
        raise PositiveDefinitenessError(
            f"matrix lost positive definiteness{where}: min eigenvalue "
            f"{m:.6e} <= floor {floor[i]:.6e}{tail}")


def _cholesky_passes(x: np.ndarray) -> bool:
    """Whether the Cholesky factor of x, or of each matrix of a stack,
    exists and is finite.  numpy's Cholesky passes NaN through without
    raising; a non-finite entry of the lower triangle reaches the last
    diagonal entry."""
    try:
        return bool(np.isfinite(np.linalg.cholesky(x)[..., -1, -1]).all())
    except np.linalg.LinAlgError:
        return False


def cov_rhs(P, A, Q, G=0.0):
    """Covariance rate A P + P A^T + Q - sym(G) of one P or of each in a
    stack: the Lyapunov flow at G = 0, the covariance surrogate with G its
    gain term sum_j lam_j g_j(P) up to symmetry (cov_gains).  It is
    B + B^T + Q with B = A P - G / 2, exactly symmetric."""
    B = A @ P - 0.5 * G
    return B + B.swapaxes(-1, -2) + Q


def info_rhs(Y: np.ndarray, A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    YA = Y @ A
    return -(YA + YA.T) - Y @ Q @ Y


def _rk4_stages(x, h, linearize):
    """The right-hand side linearized at the four stage points of an RK4
    step from x, in stage order.  linearize(z) returns a tuple whose first
    item is the rate at z; x may be a stack of inputs, one step each."""
    l1 = linearize(x)
    l2 = linearize(x + 0.5 * h * l1[0])
    l3 = linearize(x + 0.5 * h * l2[0])
    l4 = linearize(x + h * l3[0])
    return l1, l2, l3, l4


def _rk4_step(x, h, rhs):
    k1, k2, k3, k4 = (l[0] for l in _rk4_stages(x, h, lambda z: (rhs(z),)))
    return x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _rk4_reverse(h, vjps, bar):
    """Carry the adjoint bar of one RK4 step's output back to its input.

    vjps holds, in stage order, the transposed Jacobian of the right-hand
    side at each stage point of the step (see _rk4_stages), applied as
    vjp(v).  Returns the adjoint of the input and, in stage order, the
    adjoint of each stage point's rate.
    """
    v1, v2, v3, v4 = vjps
    kb4 = (h / 6.0) * bar
    xb4 = v4(kb4)
    kb3 = (h / 3.0) * bar + h * xb4
    xb3 = v3(kb3)
    kb2 = (h / 3.0) * bar + 0.5 * h * xb3
    xb2 = v2(kb2)
    kb1 = (h / 6.0) * bar + 0.5 * h * xb2
    x_bar = _sym(bar + xb4 + xb3 + xb2 + v1(kb1))
    return x_bar, (kb1, kb2, kb3, kb4)


def _integrate(x0, dt, substeps, rhs):
    if dt < 0:
        raise ValidationError(f"dt must be nonnegative, got {dt}")
    if dt == 0.0:
        return x0.copy()
    if substeps < 1:
        raise ValidationError(f"substeps must be >= 1, got {substeps}")
    h = dt / substeps
    x = x0
    for _ in range(substeps):
        x = _sym(_rk4_step(x, h, rhs))
    return x


def flow_cov(P, A, Q, dt, substeps: int = 100) -> np.ndarray:
    """Propagate a covariance through the Lyapunov flow for a time dt."""
    out = _integrate(P, dt, substeps, lambda X: cov_rhs(X, A, Q))
    require_pd(out, f"after covariance flow over dt={dt:g}", SUBSTEP_ADVICE)
    return out


def flow_info(Y, A, Q, dt, substeps: int = 100) -> np.ndarray:
    """Propagate an information matrix through the dual flow for a time dt."""
    out = _integrate(Y, dt, substeps, lambda X: info_rhs(X, A, Q))
    require_pd(out, f"after information flow over dt={dt:g}", SUBSTEP_ADVICE)
    return out


def expm(X: np.ndarray):
    """Matrix exponential of each matrix in a stack X, and its pullback.

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 2005): each
    matrix is scaled by its own 2^-s to 1-norm at most 1, its Taylor
    polynomial evaluated by Horner's rule, and the result squared s times.

    Returns (expm(X), pullback).  pullback(B, rows, cols) is the block
    [rows, cols] of Xbar, the adjoint of the derivative of expm at X applied
    to B, one per pair: <L(X, V), B> = <V, Xbar> for every direction V, L
    the Frechet derivative.  It runs the forward's own loop in reverse on
    the powers the forward kept (Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 2009): each squaring E -> E E, under the same per-matrix mask,
    carries G <- G E^T + E^T G; each Horner step E_k = I + X E_{k+1} / k,
    from k = 1 up, adds the block of (G / k) E_{k+1}^T to Xbar and carries
    G <- X^T (G / k); the first step, I + X / EXPM_DEGREE, adds
    G / EXPM_DEGREE.  Only the block asked for is accumulated.
    """
    norm = np.abs(X).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm, 1.0))).astype(int)
    X = X / np.ldexp(1.0, s)[..., None, None]
    eye = np.eye(X.shape[-1])
    # E_k at index k - 1, in one block, so a repeated call reuses the
    # allocator's pages rather than faulting in fresh ones per iterate
    horner = np.empty((EXPM_DEGREE,) + X.shape)
    E = np.divide(X, EXPM_DEGREE, out=horner[-1])
    E += eye
    for k in range(EXPM_DEGREE - 1, 0, -1):
        E = np.matmul(X, E, out=horner[k - 1])
        E /= k
        E += eye
    squared = []                # the input of each squaring
    for i in range(int(s.max(initial=0))):
        squared.append(E)
        E = np.where((s > i)[..., None, None], E @ E, E)

    def pullback(B, rows=slice(None), cols=slice(None)):
        G = B
        for i in range(len(squared) - 1, -1, -1):
            Et = squared[i].swapaxes(-1, -2)
            G = np.where((s > i)[..., None, None], G @ Et + Et @ G, G)
        Xt = X.swapaxes(-1, -2)
        bar = 0.0
        for k in range(1, EXPM_DEGREE):
            Gk = G / k
            Et = horner[k][..., cols, :].swapaxes(-1, -2)
            bar = bar + Gk[..., rows, :] @ Et
            G = Xt @ Gk
        bar = bar + G[..., rows, cols] / EXPM_DEGREE
        return bar / np.ldexp(1.0, s)[..., None, None]

    return E, pullback


def lyapunov_maps(A, Q, h):
    """The family of exact Lyapunov flow maps over durations in [0, h].

    Returns maps(durations), which gives stacks (Phi, W) with
    P(t + d) = Phi P Phi^T + W, where Phi = e^{A d} and
    W = int_0^d e^{A s} Q e^{A^T s} ds.  Every duration shares the generator
    and the bound h, so the family is set up once, as expm would scale
    Z = h [[-A, Q], [0, A^T]]: by 2^-s to 1-norm theta <= 1, with the Taylor
    coefficients C_k = (Z / 2^s)^k / k! up to the least degree K whose
    remainder theta^(K+1) / (K+1)! is within EXPM_DEGREE's at norm 1.  A
    map is then read from sum_k t^k C_k at t = d / h, by Horner's rule in t
    elementwise, on the right block columns of the C_k only: (Phi, W) over
    d / 2^s are read from that column of the exponential of (d / 2^s)
    [[-A, Q], [0, A^T]] (Van Loan, IEEE TAC 1978).  The pair is doubled s
    times, W <- Phi W Phi^T + W then Phi <- Phi Phi, so the block's
    e^{-A d}, which a fast stable mode blows up past W, is never formed
    beyond d / 2^s.  No matrix product mixes
    durations, so each map depends on its own duration alone, bit for bit,
    whatever else the batch holds.  A duration outside [0, h] is a
    ValidationError, and a map that overflows (an unstable mode over a long
    duration) a PositiveDefinitenessError.
    """
    if not 0.0 < h < math.inf:
        raise ValidationError(f"map bound h must be positive and finite, "
                              f"got {h}")
    n = A.shape[0]
    Z = np.zeros((2 * n, 2 * n))
    Z[:n, :n], Z[:n, n:], Z[n:, n:] = -A, Q, A.T
    Z *= h
    norm = float(np.abs(Z).sum(axis=0).max())
    s = math.ceil(math.log2(max(norm, 1.0)))
    X = np.ldexp(Z, -s)
    theta = math.ldexp(norm, -s)
    tail = 1.0 / math.factorial(EXPM_DEGREE + 1)
    coeffs = [np.eye(2 * n)]
    for k in range(1, EXPM_DEGREE + 1):
        if theta ** k / math.factorial(k) <= tail:
            break
        coeffs.append(coeffs[-1] @ X / k)
    # a strided column view would run the rule about 3x slower
    columns = [np.ascontiguousarray(c[:, n:]) for c in coeffs]

    def maps(durations):
        d = np.asarray(durations, dtype=float)
        if not np.all((d >= 0.0) & (d <= h)):
            raise ValidationError(
                f"map durations must lie in [0, {h!r}], got range "
                f"[{d.min()!r}, {d.max()!r}]")
        t = (d / h)[:, None, None]
        F = np.repeat(columns[-1][None], len(d), axis=0)
        for c in columns[-2::-1]:
            F *= t
            F += c
        phi = F[:, n:].transpose(0, 2, 1)
        w = _sym(phi @ F[:, :n])
        for _ in range(s):
            w = _sym(phi @ w @ phi.transpose(0, 2, 1) + w)
            phi = phi @ phi
        if not (np.isfinite(phi).all() and np.isfinite(w).all()):
            raise PositiveDefinitenessError("non-finite covariance map")
        return phi, w

    return maps


def hamiltonian_maps(A, Q, U, h):
    """Exact step maps of the information flow under each constant input U_k.

    On a stretch where Ydot = -Y A - A^T Y - Y Q Y + U_k, Radon's lemma gives
    Y = N M^{-1} with d/dt [M; N] = [[A, Q], [U_k, -A^T]] [M; N] (Davison &
    Maki, IEEE TAC 1973).  Restarted at M = I every step (Kenney & Leipnik,
    IEEE TAC 1985), a step of length h/m is the linear-fractional map

        Y+ = (C + D Y)(E + F Y)^{-1},   [[E, F], [C, D]] = expm(X_k),
        X_k = (h/m) [[A, Q], [U_k, -A^T]].

    The blocks grow like e^{g_k}, g_k = h (|A| + sqrt(|Q| |U_k|)) (the
    1-norm of X_k balanced by a diagonal similarity, which the map does not
    see), and a long step loses the weakly driven directions to roundoff.
    So a step of length h is taken as m steps, m the least power of two
    with every g_k / m <= 1.  Returns (U_pullback, expm(X), m), one map
    per U_k: U_pullback(bar) carries the adjoint bar of each expm(X_k) back
    to the (N, n, n) adjoints of the U_k, through expm's pullback on the
    lower-left block alone, where U_k enters X_k as (h/m) U_k.  An input so
    stiff that m would exceed MAX_MAP_SPLIT is a typed error.
    """
    n = A.shape[0]
    X = np.empty((len(U), 2 * n, 2 * n))
    X[:, :n, :n] = h * A
    X[:, :n, n:] = h * Q
    X[:, n:, :n] = h * U
    X[:, n:, n:] = -h * A.T
    a = max(np.abs(A).sum(axis=0).max(), np.abs(A).sum(axis=1).max())
    u = np.abs(U).sum(axis=-2).max(initial=0.0)
    growth = h * (a + math.sqrt(np.abs(Q).sum(axis=0).max() * u))
    if not growth <= MAX_MAP_SPLIT:
        raise PositiveDefinitenessError(
            f"stage input too stiff for the exact map: growth {growth:.3e} "
            f"per step needs more than {MAX_MAP_SPLIT} steps"
        )
    m = 2 ** max(0, math.ceil(math.log2(max(growth, 1.0))))
    X /= m
    Phi, pullback = expm(X)

    def U_pullback(bar):
        return (h / m) * pullback(bar, slice(n, None), slice(None, n))

    return U_pullback, Phi, m


def stacked_gains(P, H, R):
    """Rank-p factors of the gain updates of the stacked sensors (H, R) at P.

    H and R are rows of an Instance's padded sensor stacks, or one sensor's
    matrices; P is one matrix, or a stack broadcast against the sensor
    stack (a run's covariance beside the sensor that reports to it, or
    P[..., None, :, :] for every sensor at each P).  Returns (HP, sol),
    HP = H P and sol = (H P H^T + R)^{-1} H P by one batched LAPACK solve
    at every p: the gain update of sensor j is g_j(P) = sym(HP_j^T sol_j),
    and the padded rows of both are exact zeros.  A singular innovation
    raises LinAlgError.  The filter walk, StackGains and jump_cov take
    the gains here; the cov rate of one-output sensors takes RowGains'
    flat rows instead (cov_gains).
    """
    HP = H @ P
    return HP, np.linalg.solve(HP @ H.swapaxes(-1, -2) + R, HP)


def cov_gains(H, R):
    """The gain kernels of the cov rate for the sensor stacks (H, R), rows
    of an Instance's padded stacks: RowGains when every sensor has one
    output (p = 1), else StackGains.  The one place the layout is chosen.

    P is one matrix or a stack (S, n, n), taken against every sensor, and
    lam the sensors' rates.  Each kernel has rows, the (M p, n) output rows
    of H, and
      gain_term(P, lam): sum_j lam_j HP_j^T sol_j, the gain load of the
        rate before symmetrizing (cov_rhs);
      factors(P, lam): (HP, sol, lam_sol) in rows, shaped (..., M p, n),
        with sol as in stacked_gains and lam_sol_j = lam_j sol_j;
      gain_vjp(lam_sol, sol, L): of one point, the rank-p part
        sum_j lam_j H_j^T (sol_j L sol_j^T) H_j of the rate's transposed
        Jacobian (optimize).
    """
    return (RowGains if H.shape[-2] == 1 else StackGains)(H, R)


class RowGains:
    """Gain kernels of one-output sensors on their flat rows (M, n) and
    variances r (M,).  HP = rows P is one GEMM, the innovations are
    S = rowdot(HP, rows) + r, the gain term is HP^T ((lam / S) HP) and
    sol = HP * (1 / S) row by row: the one gain that takes a reciprocal
    rather than stacked_gains' LAPACK solve, so a stage point costs one
    GEMM.  A zero S raises LinAlgError; inf and NaN pass through, under
    the caller's errstate.  The rank-one vjp weighs row j by
    c_j = rowdot(lam_sol_j L, sol_j): rows^T (c rows)."""

    def __init__(self, H, R):
        self.rows, self.r = H[:, 0], R[:, 0, 0]

    def _innovations(self, P):
        HP = self.rows @ P
        S = np.vecdot(HP, self.rows) + self.r
        if not S.all():
            raise np.linalg.LinAlgError("Singular matrix")
        return HP, S

    def gain_term(self, P, lam):
        HP, S = self._innovations(P)
        return (HP.swapaxes(-1, -2) * (lam / S)[..., None, :]) @ HP

    def factors(self, P, lam):
        HP, S = self._innovations(P)
        sol = HP * (1.0 / S)[..., None]
        return HP, sol, lam[:, None] * sol

    def gain_vjp(self, lam_sol, sol, L):
        c = np.vecdot(lam_sol @ L, sol)
        return (self.rows.T * c) @ self.rows


class StackGains:
    """Gain kernels of sensors padded to p > 1 outputs, on the stacks:
    stacked_gains' batched LAPACK solve, and p x p blocks in the vjp."""

    def __init__(self, H, R):
        self.H, self.R = H, R
        self.rows = H.reshape(-1, H.shape[-1])

    def gain_term(self, P, lam):
        HP, _, lam_sol = self.factors(P, lam)
        return HP.swapaxes(-1, -2) @ lam_sol

    def factors(self, P, lam):
        HP, sol = stacked_gains(P[..., None, :, :], self.H, self.R)
        rows = P.shape[:-2] + self.rows.shape
        return (HP.reshape(rows), sol.reshape(rows),
                (lam[:, None, None] * sol).reshape(rows))

    def gain_vjp(self, lam_sol, sol, L):
        p, n = self.H.shape[1:]
        X = (lam_sol @ L).reshape(-1, p, n)
        C = X @ sol.reshape(-1, p, n).swapaxes(1, 2)  # lam_j sol_j L sol_j^T
        return self.rows.T @ (C @ self.H).reshape(-1, n)


def jump_cov(P, sensor) -> np.ndarray:
    """Covariance after processing one arrival from the given sensor."""
    HP, sol = stacked_gains(P, sensor.H, sensor.R)
    return _sym(P - _sym(HP.T @ sol))


def jump_info(Y, sensor) -> np.ndarray:
    """Information matrix after one arrival: Y + H^T R^{-1} H."""
    return _sym(Y + sensor.S)


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
        try:
            require_pd(values, lambda i: f"at node t={times[i]:g}")
        except PositiveDefinitenessError as exc:
            raise ValidationError(str(exc)) from None
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def _checked(cls, coordinates: str, times: np.ndarray,
                 values: np.ndarray) -> "Trajectory":
        """A path from an integrator that symmetrizes every node and has run
        require_pd on each with its own message: built without checking the
        nodes a second time."""
        traj = object.__new__(cls)
        traj.__dict__.update(coordinates=coordinates, times=times,
                             values=values)
        return traj

    @property
    def n(self) -> int:
        return self.values.shape[1]


def time_grid(T: float, n: int) -> np.ndarray:
    """The uniform grid of n intervals on [0, T]: every recording grid (the
    surrogates', the rollouts', the design path's) and the stage boundaries."""
    if n < 1:
        raise ValidationError(f"n_eval must be >= 1, got {n}")
    return np.linspace(0.0, T, n + 1)


def invert_trajectory(traj: Trajectory) -> Trajectory:
    """Nodewise inverse; flips between covariance and information coordinates.
    A derived node at or below the PD floor is a PositiveDefinitenessError."""
    inv = _sym(np.linalg.inv(traj.values))
    require_pd(inv, lambda i: f"at node t={traj.times[i]:g}")
    coords = INFO if traj.coordinates == COV else COV
    return Trajectory._checked(coords, traj.times, inv)


def node_weights(times: np.ndarray, weights: WeightSpec) -> np.ndarray:
    """Per-node weight matrices of the objective on a time grid.

    Returns the (len(times), n, n) table W_hat with cost = sum_i <W_hat[i],
    P_i>: the composite trapezoid rule of the running integral plus W_T on
    the last node.  The running weight of a subinterval is the stage matrix
    at its midpoint, which reproduces the piecewise-constant W exactly
    whenever the grid contains the stage boundaries.  Every objective, Monte
    Carlo cost and adjoint seed of the package reads this one table.
    """
    table = np.zeros((len(times), weights.n, weights.n))
    stages = weights.W_stages
    if stages is not None:
        delta = float(times[-1] - times[0]) / len(stages)
        mid = 0.5 * (times[:-1] + times[1:]) - times[0]
        k = np.minimum((mid / delta).astype(int), len(stages) - 1)
        half = (0.5 * np.diff(times))[:, None, None] * stages[k]
        table[:-1] += half
        table[1:] += half
    table[-1] += weights.W_T
    return table


def read_nodes(table: np.ndarray) -> np.ndarray:
    """The nodes a node_weights table reads: a mask of its nonzero matrices.

    With a terminal weight alone, the last node."""
    return table.any(axis=(1, 2))


def pathwise_cost(
    traj: Trajectory, weights: WeightSpec, horizon: float | None = None
) -> float:
    """Objective integral(<W(t), P(t)>) dt + <W_T, P(T)> along a trajectory.

    Reduces the path with its node_weights table.  An information path is
    inverted at its weighted nodes only (with a terminal weight alone, the
    last).  When horizon is given, the grid must span [0, horizon].
    """
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
    table = node_weights(traj.times, weights)
    at = np.flatnonzero(read_nodes(table))
    values = traj.values[at]
    if traj.coordinates == INFO:
        values = _sym(np.linalg.inv(values))
    return float(np.tensordot(table[at], values, axes=3))


__all__ = [
    "COV",
    "INFO",
    "PositiveDefinitenessError",
    "Trajectory",
    "cov_gains",
    "cov_rhs",
    "expm",
    "flow_cov",
    "flow_info",
    "hamiltonian_maps",
    "info_rhs",
    "invert_trajectory",
    "jump_cov",
    "jump_info",
    "lyapunov_maps",
    "node_weights",
    "pathwise_cost",
    "pd_floor",
    "read_nodes",
    "require_pd",
    "stacked_gains",
    "time_grid",
]
