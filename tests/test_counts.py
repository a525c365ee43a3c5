"""Every count the package takes is read by one rule, model._count: a whole
number at least its least value, refused where it enters, before any work.
A seed is read by model._seed_sequence, which refuses a bool the same way."""
import math
import re

import numpy as np
import pytest

from infosched import bounds, montecarlo, riccati, surrogate
from infosched.bounds import objective_bracket, trajectory_bracket
from infosched.model import (
    InstanceSpec,
    Schedule,
    SystemModel,
    ValidationError,
    random_instance,
)
from infosched.montecarlo import mc_mean_trajectories, mc_objective
from infosched.optimize import ShootingProblem, SolveOptions, centered_rates
from infosched.riccati import flow_cov, flow_info, time_grid
from infosched.surrogate import (integrate_cov_surrogate,
                                 integrate_info_surrogate)

from conftest import make_scalar_instance

INST = make_scalar_instance(a=-0.5, q=1.0)
SCHED = Schedule(N=2, T=1.0, rates=np.ones((2, 1)))
ONE = np.eye(1)
RUN = {"n_runs": 2, "n_eval": 4}


def _random(**kw):
    return random_instance(InstanceSpec(**({"n": 2, "M": 2} | kw)))


# entry: (argument name, least value, call with the count, the message of a
# count just below the least where it is not _count's own)
ENTRIES = {
    "SystemModel-n": (
        "n", 1, lambda x: SystemModel(n=x, A=ONE, Q=ONE, P0=ONE, T=1.0),
        None),
    "Schedule-N": (
        "N", 1, lambda x: Schedule(N=x, T=1.0, rates=np.ones((2, 1))), None),
    "ShootingProblem-N": (
        "N", 1, lambda x: ShootingProblem(instance=INST, N=x), None),
    "ShootingProblem-substeps": (
        "substeps", 1, lambda x: ShootingProblem(instance=INST, N=2,
                                                 substeps=x), None),
    "centered_rates-N": (
        "N", 1, lambda x: centered_rates(INST.polytope, x), None),
    "SolveOptions-max_iters": (
        "max_iters", 0, lambda x: SolveOptions(max_iters=x), None),
    "info-surrogate-substeps": (
        "substeps", 1, lambda x: integrate_info_surrogate(INST, SCHED, x),
        None),
    "cov-surrogate-n_eval": (
        "n_eval", 1, lambda x: integrate_cov_surrogate(INST, SCHED, 4, x),
        None),
    "time_grid-n_eval": ("n_eval", 1, lambda x: time_grid(1.0, x), None),
    "flow_cov-substeps": (
        "substeps", 1, lambda x: flow_cov(ONE, -ONE, ONE, 1.0, substeps=x),
        None),
    "flow_info-substeps": (
        "substeps", 1, lambda x: flow_info(ONE, -ONE, ONE, 1.0, substeps=x),
        None),
    "mc_objective-n_runs": (
        "n_runs", 1, lambda x: mc_objective(INST, SCHED, n_runs=x, n_eval=4),
        None),
    "mc_mean_trajectories-n_runs": (
        "n_runs", 1, lambda x: mc_mean_trajectories(INST, SCHED, n_runs=x,
                                                    n_eval=4), None),
    "objective_bracket-n_runs": (
        "n_runs", 1, lambda x: objective_bracket(INST, SCHED, n_runs=x,
                                                 n_eval=4), None),
    "objective_bracket-surrogate_substeps": (
        "surrogate_substeps", 1, lambda x: objective_bracket(
            INST, SCHED, **RUN, surrogate_substeps=x), None),
    "trajectory_bracket-n_runs": (
        "n_runs", 1, lambda x: trajectory_bracket(INST, SCHED, n_runs=x,
                                                  n_eval=4), None),
    "trajectory_bracket-surrogate_substeps": (
        "surrogate_substeps", 1, lambda x: trajectory_bracket(
            INST, SCHED, **RUN, surrogate_substeps=x), None),
    "random_instance-n": (
        "n", 1, lambda x: _random(n=x), "need 1 <= p <= n, got p=1, n=0"),
    "random_instance-M": (
        "M", 1, lambda x: _random(M=x), "need at least one sensor, got M=0"),
    "random_instance-p": (
        "p", 1, lambda x: _random(p=x), "need 1 <= p <= n, got p=0, n=2"),
}


@pytest.fixture
def work(monkeypatch):
    """The names of the integrators and samplers called: the bracket's
    surrogates, every RK4 stop and flow, and each run's arrivals."""
    calls = []
    for module, name in ((bounds, "integrate_info_surrogate"),
                         (bounds, "integrate_cov_surrogate"),
                         (surrogate, "_integrate"), (riccati, "_integrate"),
                         (montecarlo, "sample_arrivals")):
        def spy(*args, _real=getattr(module, name), **kwargs):
            calls.append(_real.__name__)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, "below"],
                         ids=["fraction", "nan", "inf", "below-least"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_count_that_is_not_a_whole_number_at_least_its_least_is_refused(
        work, entry, value):
    name, least, call, below = ENTRIES[entry]
    if value == "below":
        value = least - 1
        message = below or f"{name} must be >= {least}, got {value}"
    else:
        message = f"{name} must be a whole number, got {value!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(value)
    assert work == []


@pytest.mark.parametrize("value", [True, np.True_, "3"],
                         ids=["bool", "numpy-bool", "string"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_bool_or_a_string_count_is_a_type_error(work, entry, value):
    name, _, call, _ = ENTRIES[entry]
    with pytest.raises(TypeError, match=f"^{name} must be a number, got "):
        call(value)
    assert work == []


@pytest.mark.parametrize("entry, value", [
    ("SystemModel-n", 1.0), ("Schedule-N", 2.0), ("ShootingProblem-N", 2.0),
    ("SolveOptions-max_iters", 2.0),
])
def test_a_whole_float_count_is_read_as_an_int(entry, value):
    name, _, call, _ = ENTRIES[entry]
    got = getattr(call(value), name)
    assert type(got) is int and got == value


SEEDED = {
    "random_instance": lambda seed: _random(seed=seed),
    "mc_objective": lambda seed: mc_objective(INST, SCHED, **RUN, seed=seed),
    "objective_bracket": lambda seed: objective_bracket(INST, SCHED, **RUN,
                                                        seed=seed),
    "trajectory_bracket": lambda seed: trajectory_bracket(INST, SCHED, **RUN,
                                                          seed=seed),
}


@pytest.mark.parametrize("value", [True, np.True_],
                         ids=["bool", "numpy-bool"])
@pytest.mark.parametrize("entry", SEEDED)
def test_a_bool_seed_is_a_type_error(work, entry, value):
    # True is not seed 1: refused before any draw or integration
    with pytest.raises(TypeError, match="^seed must be a number, got "):
        SEEDED[entry](value)
    assert work == []
