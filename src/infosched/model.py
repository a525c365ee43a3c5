"""Problem data: linear diffusion model, sensors, rate constraints, schedules.

Everything downstream (the Riccati kernels, the stochastic filter rollouts,
the deterministic surrogates, the optimizer) consumes the frozen containers
defined here.  Validation happens once, at construction, so the numerical
kernels can assume clean inputs: symmetric matrices are re-symmetrized to
absorb JSON round-trip noise, shapes are checked eagerly, and definiteness
failures report the offending eigenvalue.

Randomly generated instances use the counter-based Philox bit generator keyed
through ``numpy.random.SeedSequence``; numpy guarantees those streams are
stable across platforms and releases, so a seed pins an instance exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

SYMMETRY_RTOL = 1e-12      # relative asymmetry allowed on ingestion
PSD_EIG_FLOOR = -1e-10     # scale-relative floor for "PSD up to noise"
FEASIBILITY_TOL = 1e-9     # violation a feasible schedule may carry
PD_FLOOR_REL = 1e-12       # min eigenvalue must stay above PD_FLOOR_REL * trace/n


class ValidationError(ValueError):
    """Raised when problem data violates a structural contract."""


def _sym(x: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (x + np.swapaxes(x, -1, -2))


def _freeze(x: np.ndarray) -> np.ndarray:
    out = np.array(x, dtype=float)
    out.setflags(write=False)
    return out


def _as_matrix(x, name: str, shape: tuple[int, int]) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _unit_scaled(x: np.ndarray) -> tuple[np.ndarray, float]:
    """x / c and c = max(max_ij |x_ij|, 1): the norms of x / c cannot
    overflow, and a matrix with no entry above 1 is checked as it is."""
    c = max(float(np.abs(x).max()), 1.0)
    return x / c, c


def _check_symmetric(x: np.ndarray, name: str) -> np.ndarray:
    y, c = _unit_scaled(x)
    scale = max(float(np.linalg.norm(y)), 1e-300)
    skew = float(np.linalg.norm(y - y.T))
    if skew > SYMMETRY_RTOL * scale:
        raise ValidationError(
            f"{name} is not symmetric: ||X - X^T|| = {c * skew:.3e} exceeds "
            f"{SYMMETRY_RTOL:g} * ||X|| = {c * SYMMETRY_RTOL * scale:.3e}"
        )
    return 0.5 * x + 0.5 * x.T  # _sym's floats, without overflowing x + x^T


def _check_psd(x: np.ndarray, name: str) -> None:
    # the floor PSD_EIG_FLOOR * max(||x||, 1) in units of c: when c > 1,
    # ||x / c|| >= 1 already
    y, c = _unit_scaled(x)
    scale = max(float(np.linalg.norm(y)), 1.0)
    w = np.linalg.eigvalsh(y)
    if w[0] < PSD_EIG_FLOOR * scale:
        raise ValidationError(
            f"{name} is not positive semidefinite: min eigenvalue "
            f"{c * w[0]:.6e}"
        )


def _check_spd(x: np.ndarray, name: str) -> None:
    w = np.linalg.eigvalsh(x)
    if w[0] <= 0.0:
        raise ValidationError(
            f"{name} is not positive definite: min eigenvalue {w[0]:.6e}"
        )


def _check_prior(P0: np.ndarray) -> None:
    """P0 and its inverse, the first nodes of the covariance and information
    paths, each clear the floor every path is held to: min eigenvalue above
    PD_FLOOR_REL * trace/n."""
    w = np.linalg.eigvalsh(P0)
    for name, ev in (("P0", w), ("P0^-1", 1.0 / w[::-1])):
        floor = PD_FLOOR_REL * (ev / len(ev)).sum()  # ev.sum() can overflow
        if ev[0] <= floor:
            raise ValidationError(
                f"{name} is too badly scaled: min eigenvalue {ev[0]:.6e} <= "
                f"floor {floor:.6e} ({PD_FLOOR_REL:g} * trace/n)")


def information_increment(H, R) -> np.ndarray:
    """Per-arrival information gain H^T R^{-1} H of a sensor.

    The result is explicitly symmetrized, (S + S^T)/2, so accumulating many
    increments cannot drift off the symmetric cone.  R must be symmetric
    positive definite; the error message names the offending eigenvalue.
    """
    H = np.asarray(H, dtype=float)
    R = np.asarray(R, dtype=float)
    if H.ndim != 2:
        raise ValidationError(f"H must be a matrix, got ndim={H.ndim}")
    p = H.shape[0]
    R = _check_symmetric(_as_matrix(R, "R", (p, p)), "R")
    _check_spd(R, "R")
    return _sym(H.T @ np.linalg.solve(R, H))


@dataclass(frozen=True)
class SystemModel:
    """Linear stochastic system dx = A x dt + dw with E[dw dw^T] = Q dt.

    Holds the prior mean/covariance and the horizon; n is the state dimension.
    """

    n: int
    A: np.ndarray
    Q: np.ndarray
    m0: np.ndarray
    P0: np.ndarray
    T: float

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise ValidationError(f"state dimension must be >= 1, got {n}")
        A = _as_matrix(self.A, "A", (n, n))
        Q = _check_symmetric(_as_matrix(self.Q, "Q", (n, n)), "Q")
        _check_psd(Q, "Q")
        P0 = _check_symmetric(_as_matrix(self.P0, "P0", (n, n)), "P0")
        _check_spd(P0, "P0")
        _check_prior(P0)
        m0 = np.asarray(self.m0, dtype=float)
        if m0.shape != (n,):
            raise ValidationError(f"m0 must have shape ({n},), got {m0.shape}")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValidationError(f"horizon T must be positive, got {self.T}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "Q", _freeze(Q))
        object.__setattr__(self, "m0", _freeze(m0))
        object.__setattr__(self, "P0", _freeze(P0))
        object.__setattr__(self, "T", float(self.T))


@dataclass(frozen=True)
class Sensor:
    """One sensor: z = H x + v with v ~ N(0, R) at each Poisson arrival.

    The cached increment S = H^T R^{-1} H is what an arrival adds in
    information coordinates.
    """

    H: np.ndarray
    R: np.ndarray
    S: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        if H.ndim != 2 or H.shape[0] < 1:
            raise ValidationError(f"H must be a (p, n) matrix, got shape {H.shape}")
        if not np.all(np.isfinite(H)):
            raise ValidationError("H contains non-finite entries")
        S = information_increment(H, self.R)
        object.__setattr__(self, "H", _freeze(H))
        object.__setattr__(self, "R", _freeze(_sym(np.asarray(self.R, dtype=float))))
        object.__setattr__(self, "S", _freeze(S))

    @property
    def p(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class ResourcePolytope:
    """Admissible rate set {lam >= 0, C lam <= b}, applied stage by stage."""

    C: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.C, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if C.ndim != 2:
            raise ValidationError(f"C must be a matrix, got ndim={C.ndim}")
        if b.shape != (C.shape[0],):
            raise ValidationError(
                f"b must have shape ({C.shape[0]},), got {b.shape}"
            )
        if not (np.all(np.isfinite(C)) and np.all(np.isfinite(b))):
            raise ValidationError("constraint data contains non-finite entries")
        if np.any(C < 0):
            raise ValidationError("C must be elementwise nonnegative")
        if np.any(b < 0):
            raise ValidationError("b must be elementwise nonnegative")
        if np.any(C.sum(axis=0) <= 0):
            j = int(np.argmin(C.sum(axis=0)))
            raise ValidationError(
                f"column {j} of C has no positive entry; rate {j} would be unbounded"
            )
        object.__setattr__(self, "C", _freeze(C))
        object.__setattr__(self, "b", _freeze(b))

    @property
    def n_sensors(self) -> int:
        return self.C.shape[1]


@dataclass(frozen=True)
class WeightSpec:
    """Objective weights: running W(t) (piecewise constant per control
    interval, None means identically zero) and terminal W_T."""

    W_stages: np.ndarray | None
    W_T: np.ndarray

    def __post_init__(self):
        W_T = np.asarray(self.W_T, dtype=float)
        if W_T.ndim != 2 or W_T.shape[0] != W_T.shape[1]:
            raise ValidationError(f"W_T must be square, got shape {W_T.shape}")
        n = W_T.shape[0]
        W_T = _check_symmetric(_as_matrix(W_T, "W_T", (n, n)), "W_T")
        _check_psd(W_T, "W_T")
        stages = self.W_stages
        if stages is not None:
            stages = np.asarray(stages, dtype=float)
            if stages.ndim != 3 or stages.shape[1:] != (n, n) or stages.shape[0] < 1:
                raise ValidationError(
                    f"W_stages must have shape (N, {n}, {n}), got {stages.shape}"
                )
            fixed = np.empty_like(stages)
            for k in range(stages.shape[0]):
                Wk = _check_symmetric(stages[k], f"W_stages[{k}]")
                _check_psd(Wk, f"W_stages[{k}]")
                fixed[k] = Wk
            stages = _freeze(fixed)
        object.__setattr__(self, "W_stages", stages)
        object.__setattr__(self, "W_T", _freeze(W_T))

    @property
    def n(self) -> int:
        return self.W_T.shape[0]


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant transmission rates: rates[k, j] holds on the k-th of
    N equal intervals covering [0, T]."""

    N: int
    T: float
    rates: np.ndarray

    def __post_init__(self):
        N = int(self.N)
        if N < 1:
            raise ValidationError(f"N must be >= 1, got {N}")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValidationError(f"T must be positive, got {self.T}")
        rates = np.asarray(self.rates, dtype=float)
        if rates.ndim != 2 or rates.shape[0] != N:
            raise ValidationError(
                f"rates must have shape ({N}, M), got {rates.shape}"
            )
        if not np.all(np.isfinite(rates)):
            raise ValidationError("rates contain non-finite entries")
        if np.min(rates, initial=0.0) < -1e-12:
            raise ValidationError(
                f"rates must be nonnegative, min entry {np.min(rates):.3e}"
            )
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "rates", _freeze(np.maximum(rates, 0.0)))

    @property
    def M(self) -> int:
        return self.rates.shape[1]

    @property
    def delta(self) -> float:
        return self.T / self.N


@dataclass(frozen=True)
class Instance:
    """A complete scheduling problem: system, sensor pool, rate constraints,
    and the objective weights.

    The sensor pool is also held as stacks, built once here: H of shape
    (M, p_max, n), R of shape (M, p_max, p_max) and the increments S of
    shape (M, n, n).  A sensor with p < p_max is padded with zero rows of H
    and an identity block of R, so H P H^T + R is blockdiag(H_j P H_j^T +
    R_j, I): its gain is exactly the unpadded one, and the padded rows of
    (H P H^T + R)^{-1} H P are exact zeros.
    """

    system: SystemModel
    sensors: tuple[Sensor, ...]
    polytope: ResourcePolytope
    weights: WeightSpec
    H: np.ndarray = field(init=False, repr=False, compare=False)
    R: np.ndarray = field(init=False, repr=False, compare=False)
    S: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sensors = tuple(self.sensors)
        if len(sensors) < 1:
            raise ValidationError("instance needs at least one sensor")
        n = self.system.n
        for j, s in enumerate(sensors):
            if s.H.shape[1] != n:
                raise ValidationError(
                    f"sensor {j}: H has {s.H.shape[1]} columns, expected {n}"
                )
        if self.polytope.n_sensors != len(sensors):
            raise ValidationError(
                f"C has {self.polytope.n_sensors} columns but instance has "
                f"{len(sensors)} sensors"
            )
        if self.weights.n != n:
            raise ValidationError(
                f"weights are {self.weights.n}x{self.weights.n}, expected {n}x{n}"
            )
        p = max(s.p for s in sensors)
        H = np.zeros((len(sensors), p, n))
        R = np.tile(np.eye(p), (len(sensors), 1, 1))
        S = np.empty((len(sensors), n, n))
        for j, s in enumerate(sensors):
            H[j, :s.p] = s.H
            R[j, :s.p, :s.p] = s.R
            S[j] = s.S
        object.__setattr__(self, "sensors", sensors)
        object.__setattr__(self, "H", _freeze(H))
        object.__setattr__(self, "R", _freeze(R))
        object.__setattr__(self, "S", _freeze(S))

    @property
    def n(self) -> int:
        return self.system.n

    @property
    def M(self) -> int:
        return len(self.sensors)

    @property
    def T(self) -> float:
        return self.system.T


def _check_pair(instance: Instance, schedule: Schedule) -> None:
    """The one check that a schedule belongs to an instance: a column per
    sensor and the instance's horizon."""
    if schedule.M != instance.M:
        raise ValidationError(
            f"schedule has {schedule.M} sensor columns, instance has {instance.M}"
        )
    if abs(schedule.T - instance.T) > 1e-9 * max(1.0, instance.T):
        raise ValidationError(
            f"schedule horizon {schedule.T:g} != instance horizon {instance.T:g}"
        )


@dataclass(frozen=True)
class FeasibilityReport:
    """Worst constraint violations of a schedule against a polytope."""

    budget_violation: float        # max over stages of max(C lam_k - b)
    nonneg_violation: float        # max over stages of max(-lam_k)
    feasible: bool


def validate_schedule(
    schedule: Schedule, polytope: ResourcePolytope
) -> FeasibilityReport:
    """Check C lam_k <= b and lam_k >= 0 to FEASIBILITY_TOL at every stage."""
    if schedule.M != polytope.n_sensors:
        raise ValidationError(
            f"schedule has {schedule.M} sensors, polytope expects "
            f"{polytope.n_sensors}"
        )
    slack = schedule.rates @ polytope.C.T - polytope.b  # (N, n_rows)
    budget_violation = float(slack.max())
    nonneg_violation = float((-schedule.rates).max())
    return FeasibilityReport(
        budget_violation=budget_violation,
        nonneg_violation=nonneg_violation,
        feasible=max(budget_violation, nonneg_violation) <= FEASIBILITY_TOL,
    )


# ---------------------------------------------------------------------------
# random instances


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for a random instance.

    n state dimensions, M sensors of output dimension p each, horizon T and a
    single total-rate budget (sum of rates <= budget per stage).  A has
    ceil(n/2) eigenvalues in [-1, -0.1] and the rest in [0.1, 1].
    """

    n: int
    M: int
    p: int = 1
    seed: int = 0
    T: float = 3.0
    budget: float = 5.0


def _seed_sequence(seed, spawn_key=()) -> np.random.SeedSequence:
    """The SeedSequence of a nonnegative integer seed, the one rule every
    seeded stream goes through; any other seed is a ValidationError."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.SeedSequence(seed, spawn_key=spawn_key)


def _generator(seed) -> np.random.Generator:
    # Philox is counter-based; streams are reproducible across platforms.
    if not isinstance(seed, np.random.SeedSequence):
        seed = _seed_sequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    # sign fix makes the distribution Haar and the output deterministic
    return q * np.sign(np.diag(r))


def random_instance(spec: InstanceSpec) -> Instance:
    """Draw an instance following a fixed recipe.

    A = V diag(mu) V^T with V random orthogonal and a stable/unstable split of
    eigenvalues; Q = I, P0 = 100 I, m0 = 0.  Each sensor has orthonormal rows
    (QR factor of a Gaussian matrix) and R with random orthogonal eigenbasis
    and eigenvalues uniform on [1, 10].  The constraint is one budget row:
    sum_j lam_j <= budget.  Draws happen in a fixed order (A first, then each
    sensor's H before its R), so a seed pins the instance bit for bit.
    """
    n, M, p = int(spec.n), int(spec.M), int(spec.p)
    if not (1 <= p <= n):
        raise ValidationError(f"need 1 <= p <= n, got p={p}, n={n}")
    if M < 1:
        raise ValidationError(f"need at least one sensor, got M={M}")
    stable = math.ceil(n / 2)
    rng = _generator(spec.seed)

    V = _random_orthogonal(rng, n)
    mu = np.concatenate(
        [rng.uniform(-1.0, -0.1, stable), rng.uniform(0.1, 1.0, n - stable)]
    )
    A = V @ np.diag(mu) @ V.T

    system = SystemModel(
        n=n, A=A, Q=np.eye(n), m0=np.zeros(n), P0=100.0 * np.eye(n), T=spec.T
    )

    sensors = []
    for _ in range(M):
        G = rng.standard_normal((p, n))
        q, _ = np.linalg.qr(G.T)       # (n, p), orthonormal columns
        H = q.T
        U = _random_orthogonal(rng, p)
        evals = rng.uniform(1.0, 10.0, p)
        R = _sym(U @ np.diag(evals) @ U.T)
        sensors.append(Sensor(H=H, R=R))

    polytope = ResourcePolytope(C=np.ones((1, M)), b=np.array([spec.budget]))
    weights = WeightSpec(W_stages=None, W_T=np.eye(n))
    return Instance(
        system=system, sensors=tuple(sensors), polytope=polytope, weights=weights
    )


# ---------------------------------------------------------------------------
# JSON round-trips


def instance_to_dict(instance: Instance) -> dict:
    w = instance.weights
    return {
        "n": instance.n,
        "T": instance.T,
        "A": instance.system.A.tolist(),
        "Q": instance.system.Q.tolist(),
        "P0": instance.system.P0.tolist(),
        "m0": instance.system.m0.tolist(),
        "sensors": [{"H": s.H.tolist(), "R": s.R.tolist()} for s in instance.sensors],
        "constraints": {"C": instance.polytope.C.tolist(),
                        "b": instance.polytope.b.tolist()},
        "weights": {
            "W_stages": None if w.W_stages is None else w.W_stages.tolist(),
            "WT": w.W_T.tolist(),
        },
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        n = int(data["n"])
        system = SystemModel(
            n=n, A=data["A"], Q=data["Q"], m0=data["m0"], P0=data["P0"],
            T=float(data["T"]),
        )
        sensors = tuple(Sensor(H=s["H"], R=s["R"]) for s in data["sensors"])
        polytope = ResourcePolytope(
            C=data["constraints"]["C"], b=data["constraints"]["b"]
        )
        wd = data["weights"]
        weights = WeightSpec(W_stages=wd.get("W_stages"), W_T=wd["WT"])
    except ValidationError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed instance payload: {exc!r}") from exc
    return Instance(system=system, sensors=sensors, polytope=polytope,
                    weights=weights)


def schedule_to_dict(schedule: Schedule) -> dict:
    return {"T": schedule.T, "N": schedule.N, "rates": schedule.rates.tolist()}


def schedule_from_dict(data: dict) -> Schedule:
    try:
        return Schedule(N=int(data["N"]), T=float(data["T"]), rates=data["rates"])
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed schedule payload: {exc!r}") from exc


def _dump_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_instance(path, instance: Instance) -> None:
    _dump_json(path, instance_to_dict(instance))


def load_instance(path) -> Instance:
    return instance_from_dict(_load_json(path))


def save_schedule(path, schedule: Schedule) -> None:
    _dump_json(path, schedule_to_dict(schedule))


def load_schedule(path) -> Schedule:
    return schedule_from_dict(_load_json(path))


__all__ = [
    "FeasibilityReport",
    "Instance",
    "InstanceSpec",
    "ResourcePolytope",
    "Schedule",
    "Sensor",
    "SystemModel",
    "ValidationError",
    "WeightSpec",
    "information_increment",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "load_schedule",
    "random_instance",
    "save_instance",
    "save_schedule",
    "schedule_from_dict",
    "schedule_to_dict",
    "validate_schedule",
]
