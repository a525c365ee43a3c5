"""Problem data: linear diffusion model, sensors, rate constraints, schedules.

Everything downstream (the Riccati kernels, the stochastic filter rollouts,
the deterministic surrogates, the optimizer) consumes the frozen containers
defined here.  Validation happens once, at construction, so the numerical
kernels can assume clean inputs: every array of an instance goes through
one ingest, _matrix, which checks its shape and finite entries and, for a
symmetric matrix, symmetry and definiteness (a failure reports the
offending eigenvalue), then stores its symmetric part to absorb JSON
round-trip noise.

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


def _whole(x, name: str) -> int:
    """x as an int, refusing a value that int() would truncate, like 2.9."""
    if int(x) != x:
        raise ValidationError(f"{name} must be a whole number, got {x!r}")
    return int(x)


def _freeze(x: np.ndarray) -> np.ndarray:
    out = np.array(x, dtype=float)
    out.setflags(write=False)
    return out


def _matrix(x, name: str, shape: tuple, definite: str = "") -> np.ndarray:
    """The one ingest of a stored array: x as a frozen float array of the
    given shape with finite entries, checked in that order.

    definite "psd" or "pd" also asks each matrix of x (x may be a stack) to
    be symmetric to SYMMETRY_RTOL, then positive semidefinite to
    PSD_EIG_FLOOR * max(||x||, 1) or positive definite, and stores its
    symmetric part 0.5 x + 0.5 x^T: the floats of _sym, without
    overflowing x + x^T.  Norms and eigenvalues are taken of x / c, c =
    max(max_ij |x_ij|, 1), so they cannot overflow, and a matrix with no
    entry above 1 is checked as it is.  An error in a stack names the first
    failing matrix, name[k].
    """
    arr = np.asarray(x, dtype=float)
    if arr.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    if not definite:
        return _freeze(arr)
    y = arr.reshape(-1, *arr.shape[-2:])      # a matrix is a stack of one
    c = np.abs(y).max(axis=(1, 2), initial=1.0)
    y = y / c[:, None, None]
    scale = np.maximum(np.linalg.norm(y, axis=(1, 2)), 1e-300)
    skew = np.linalg.norm(y - y.swapaxes(1, 2), axis=(1, 2))
    w = np.linalg.eigvalsh(0.5 * (y + y.swapaxes(1, 2)))[:, 0]
    if definite == "pd":
        kind, low = "definite", w <= 0.0
    else:
        kind, low = "semidefinite", w < PSD_EIG_FLOOR * np.maximum(scale, 1.0)
    label = name if arr.ndim == 2 else name + "[{}]"
    asym = skew > SYMMETRY_RTOL * scale
    if asym.any():
        k = int(np.argmax(asym))               # the first failing matrix
        raise ValidationError(
            f"{label.format(k)} is not symmetric: ||X - X^T|| = "
            f"{c[k] * skew[k]:.3e} exceeds {SYMMETRY_RTOL:g} * ||X|| = "
            f"{c[k] * SYMMETRY_RTOL * scale[k]:.3e}")
    if low.any():
        k = int(np.argmax(low))
        raise ValidationError(
            f"{label.format(k)} is not positive {kind}: min eigenvalue "
            f"{c[k] * w[k]:.6e}")
    return _freeze(0.5 * arr + 0.5 * np.swapaxes(arr, -1, -2))


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
        n = _whole(self.n, "n")
        if n < 1:
            raise ValidationError(f"state dimension must be >= 1, got {n}")
        A = _matrix(self.A, "A", (n, n))
        Q = _matrix(self.Q, "Q", (n, n), "psd")
        P0 = _matrix(self.P0, "P0", (n, n), "pd")
        _check_prior(P0)
        m0 = _matrix(self.m0, "m0", (n,))
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValidationError(f"horizon T must be positive, got {self.T}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "P0", P0)
        object.__setattr__(self, "T", float(self.T))


@dataclass(frozen=True)
class Sensor:
    """One sensor: z = H x + v with v ~ N(0, R) at each Poisson arrival.

    R is symmetric positive definite and stored as its symmetric part.  The
    cached increment S = H^T R^{-1} H is what an arrival adds in information
    coordinates, symmetrized so that accumulating many increments cannot
    drift off the symmetric cone.
    """

    H: np.ndarray
    R: np.ndarray
    S: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        if H.ndim != 2 or H.shape[0] < 1:
            raise ValidationError(f"H must be a (p, n) matrix, got shape {H.shape}")
        H = _matrix(H, "H", H.shape)
        R = _matrix(self.R, "R", (H.shape[0],) * 2, "pd")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "S", _freeze(_sym(H.T @ np.linalg.solve(R, H))))

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
        if C.ndim != 2:
            raise ValidationError(f"C must be a matrix, got ndim={C.ndim}")
        C = _matrix(C, "C", C.shape)
        b = _matrix(self.b, "b", C.shape[:1])
        if np.any(C < 0):
            raise ValidationError("C must be elementwise nonnegative")
        if np.any(b < 0):
            raise ValidationError("b must be elementwise nonnegative")
        if np.any(C.sum(axis=0) <= 0):
            j = int(np.argmin(C.sum(axis=0)))
            raise ValidationError(
                f"column {j} of C has no positive entry; rate {j} would be unbounded"
            )
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "b", b)

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
        n = len(np.atleast_1d(self.W_T))
        W_T = _matrix(self.W_T, "W_T", (n, n), "psd")
        stages = self.W_stages
        if stages is not None:
            N = max(len(np.atleast_1d(stages)), 1)     # at least one stage
            stages = _matrix(stages, "W_stages", (N, n, n), "psd")
        object.__setattr__(self, "W_stages", stages)
        object.__setattr__(self, "W_T", W_T)

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
        N = _whole(self.N, "N")
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
    """Worst budget violation of a schedule against a polytope (a
    Schedule's rates are nonnegative by construction)."""

    budget_violation: float        # max over stages of max(C lam_k - b)
    feasible: bool


def validate_schedule(
    schedule: Schedule, polytope: ResourcePolytope
) -> FeasibilityReport:
    """Check C lam_k <= b to FEASIBILITY_TOL at every stage."""
    if schedule.M != polytope.n_sensors:
        raise ValidationError(
            f"schedule has {schedule.M} sensors, polytope expects "
            f"{polytope.n_sensors}"
        )
    slack = schedule.rates @ polytope.C.T - polytope.b  # (N, n_rows)
    budget_violation = float(slack.max())
    return FeasibilityReport(
        budget_violation=budget_violation,
        feasible=budget_violation <= FEASIBILITY_TOL,
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
        system = SystemModel(
            n=data["n"], A=data["A"], Q=data["Q"], m0=data["m0"],
            P0=data["P0"], T=float(data["T"]),
        )
        sensors = tuple(Sensor(H=s["H"], R=s["R"]) for s in data["sensors"])
        polytope = ResourcePolytope(
            C=data["constraints"]["C"], b=data["constraints"]["b"]
        )
        wd = data["weights"]
        weights = WeightSpec(W_stages=wd.get("W_stages"), W_T=wd["WT"])
    except ValidationError:
        raise
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed instance payload: {exc!r}") from exc
    return Instance(system=system, sensors=sensors, polytope=polytope,
                    weights=weights)


def schedule_to_dict(schedule: Schedule) -> dict:
    return {"T": schedule.T, "N": schedule.N, "rates": schedule.rates.tolist()}


def schedule_from_dict(data: dict) -> Schedule:
    try:
        return Schedule(N=data["N"], T=float(data["T"]), rates=data["rates"])
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
