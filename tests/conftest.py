import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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
    """riccati.stacked_gains with LAPACK's solve at every p: the reference
    of its scalar innovations."""
    HP = H @ P
    return HP, np.linalg.solve(HP @ H.swapaxes(-1, -2) + R, HP)


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
