import pathlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# the scripts under scripts/ import as top-level modules in the tests
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def random_spd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    B = rng.normal(size=(n, n))
    return scale * (B @ B.T + n * np.eye(n))


def lapack_gains(P, H, R):
    """The gain factors (HP, sol) by LAPACK's solve at every p, written
    apart from riccati.stacked_gains: the reference of its edge cases and
    of RowGains' scalar innovations."""
    HP = H @ P
    return HP, np.linalg.solve(HP @ H.swapaxes(-1, -2) + R, HP)


def covariance_decrement(P, sensor):
    """Gain update g(P) = P H^T (H P H^T + R)^{-1} H P of one arrival,
    solved for the one sensor: the per-sensor reference of the package's
    stacked gains."""
    from infosched.model import _sym

    HP = sensor.H @ P
    M = HP @ sensor.H.T + sensor.R
    return _sym(HP.T @ np.linalg.solve(M, HP))


def arrivals(events):
    """ArrivalRecord of (time, sensor) pairs."""
    from infosched.cdkf import ArrivalRecord

    return ArrivalRecord(times=np.asarray([t for t, _ in events], dtype=float),
                         sensors=np.asarray([j for _, j in events],
                                            dtype=np.int64))


@pytest.fixture
def rng():
    return rng_for(20260816)


def make_scalar_instance(a=0.0, q=0.0, h=1.0, r=1.0, p0=1.0, T=1.0,
                         budget=10.0, w_T=1.0):
    """1-state, 1-sensor instance used by most closed-form checks."""
    from infosched.model import (
        Instance, ResourcePolytope, Sensor, SystemModel, WeightSpec,
    )

    system = SystemModel(n=1, A=np.array([[a]]), Q=np.array([[q]]),
                         m0=np.zeros(1), P0=np.array([[p0]]), T=T)
    sensor = Sensor(H=np.array([[h]]), R=np.array([[r]]))
    polytope = ResourcePolytope(C=np.ones((1, 1)), b=np.array([budget]))
    weights = WeightSpec(W_stages=None, W_T=np.array([[w_T]]))
    return Instance(system=system, sensors=(sensor,), polytope=polytope,
                    weights=weights)


def break_the_walk(monkeypatch, how):
    """Make the filter walk fail on make_scalar_instance(a=-0.5, q=1.0).

    "node" negates the noise of every map, so P(t_k) = 2 e^{-t_k} - 1 with
    P0 = 1 and the first node past t = ln 2 loses positive definiteness;
    "arrival" gives the gain factors (1, P + 1), so every gain update
    leaves P - (P + 1) = -1 whatever P was; "singular" makes every gain
    update raise LinAlgError.
    """
    from infosched import cdkf

    if how == "node":
        family = cdkf.lyapunov_maps

        def negative_noise(A, Q, h):
            maps = family(A, Q, h)

            def negated(durations):
                phi, w = maps(durations)
                return phi, -w
            return negated

        monkeypatch.setattr(cdkf, "lyapunov_maps", negative_noise)
    elif how == "arrival":
        monkeypatch.setattr(cdkf, "stacked_gains",
                            lambda P, H, R: (np.ones_like(P), P + 1.0))
    else:
        def singular(P, H, R):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cdkf, "stacked_gains", singular)


def mixed_instance(seed, budget=5.0, T=2.0, n=4):
    """Instance whose five sensors interleave output dimensions 1 and 2."""
    from dataclasses import replace

    from infosched.model import InstanceSpec, ResourcePolytope, random_instance

    one = random_instance(InstanceSpec(n=n, M=3, p=1, seed=seed, T=T,
                                       budget=budget))
    two = random_instance(InstanceSpec(n=n, M=2, p=2, seed=seed + 1, T=T))
    sensors = (one.sensors[0], two.sensors[0], one.sensors[1],
               two.sensors[1], one.sensors[2])
    return replace(one, sensors=sensors, polytope=ResourcePolytope(
        C=np.ones((1, 5)), b=np.array([budget])))
