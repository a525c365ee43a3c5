import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from infosched.model import (
    PD_FLOOR_REL,
    Instance,
    InstanceSpec,
    ResourcePolytope,
    Schedule,
    Sensor,
    SystemModel,
    ValidationError,
    WeightSpec,
    _dump_json,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_schedule,
    pd_floor,
    random_instance,
    save_instance,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
    validate_schedule,
)

from infosched.riccati import require_pd

from conftest import random_spd, rng_for

# ---------------------------------------------------------------- increments

def test_information_increment_row_sensor():
    S = Sensor(H=np.array([[1.0, 0.0]]), R=np.array([[4.0]])).S
    np.testing.assert_allclose(S, [[0.25, 0.0], [0.0, 0.0]], atol=1e-15)


def test_information_increment_identity():
    np.testing.assert_allclose(
        Sensor(H=np.eye(2), R=np.eye(2)).S, np.eye(2), atol=1e-15)


def test_information_increment_vs_explicit_inverse(rng):
    # oracle: form R^{-1} explicitly and multiply
    H = np.linalg.qr(rng.normal(size=(5, 2)))[0].T     # 2x5, orthonormal rows
    R = random_spd(rng, 2)
    S = Sensor(H=H, R=R).S
    oracle = H.T @ np.linalg.inv(R) @ H
    err = np.linalg.norm(S - oracle) / np.linalg.norm(oracle)
    assert err <= 1e-12


def _pool_instance(sensors, n=3):
    """An instance of the given sensors on a plain system."""
    M = len(sensors)
    return Instance(
        system=SystemModel(n=n, A=np.zeros((n, n)), Q=np.eye(n), P0=np.eye(n),
                           T=1.0),
        sensors=sensors,
        polytope=ResourcePolytope(C=np.ones((1, M)), b=np.ones(1)),
        weights=WeightSpec(W_stages=None, W_T=np.eye(n)))


def test_information_increment_rejects_non_spd():
    # the pool is checked as a stack per output dimension; the error names
    # the sensor by its index in the pool, not in its stack
    R = np.array([[1.0, 0.0], [0.0, -2.0]])
    sensors = [Sensor(H=np.eye(3)[:2], R=np.eye(2)),
               Sensor(H=np.eye(3)[:1], R=np.eye(1)),
               Sensor(H=np.eye(3)[1:], R=R)]
    with pytest.raises(ValidationError, match=r"R\[2\] is not positive "
                                              "definite: min eigenvalue"):
        _pool_instance(sensors)


@pytest.mark.parametrize("field, j", [("H", 2), ("R", 1), ("H", 0)])
def test_a_non_finite_sensor_entry_names_the_sensor(field, j):
    # as a symmetry or definiteness failure does: the pool index, whatever
    # the sensor's position in its output dimension's stack
    sensors = [Sensor(H=np.eye(3)[:2], R=np.eye(2)),
               Sensor(H=np.eye(3)[:1], R=np.eye(1)),
               Sensor(H=np.eye(3)[1:], R=np.eye(2))]
    bad = {"H": sensors[j].H.copy(), "R": sensors[j].R.copy()}
    bad[field][-1, -1] = math.nan
    sensors[j] = Sensor(**bad)
    with pytest.raises(ValidationError,
                       match=rf"^{field}\[{j}\] contains non-finite entries$"):
        _pool_instance(sensors)


def test_padding_keeps_each_sensors_symmetry_threshold():
    # an identity block would raise the norm the threshold scales with:
    # this R is rejected alone, so it is rejected beside a 3-output sensor
    skew = np.array([[1.0, 1.1e-12], [0.0, 1.0]])
    with pytest.raises(ValidationError, match=r"R\[0\] is not symmetric"):
        _pool_instance([Sensor(H=np.eye(3)[:2], R=skew)])
    with pytest.raises(ValidationError, match=r"R\[1\] is not symmetric"):
        _pool_instance([Sensor(H=np.eye(3), R=np.eye(3)),
                        Sensor(H=np.eye(3)[:2], R=skew)])


def test_an_instance_checks_its_pool_in_a_fixed_number_of_calls(monkeypatch):
    # one check per stack: the ingest makes as many _matrix calls for 300
    # sensors as for 3
    from infosched import model

    calls = []
    check = model._matrix
    monkeypatch.setattr(model, "_matrix",
                        lambda *a, **k: calls.append(1) or check(*a, **k))
    counts = []
    for M in (3, 300):
        payload = instance_to_dict(random_instance(
            InstanceSpec(n=3, M=M, p=2, seed=5)))
        calls.clear()
        instance_from_dict(payload)
        counts.append(len(calls))
    assert counts[0] == counts[1] and counts[0] > 0


def test_instance_sensors_are_read_only_views_of_the_stacks():
    inst = _pool_instance([Sensor(H=[[1.0, 0.0, 0.0]], R=[[2.0]]),
                           Sensor(H=np.eye(3)[1:], R=[[2.0, 0.5], [0.5, 1.0]])])
    for j, s in enumerate(inst.sensors):
        assert np.shares_memory(s.H, inst.H) and np.shares_memory(s.R, inst.R)
        np.testing.assert_array_equal(s.H, inst.H[j, :len(s.H)])
        np.testing.assert_array_equal(s.S, inst.S[j])
        with pytest.raises(ValueError):
            s.R[0, 0] = 5.0


@given(st.integers(0, 10_000), st.floats(0.1, 10.0))
def test_information_increment_scale_cancellation(seed, alpha):
    rng = rng_for(seed)
    H = rng.normal(size=(2, 3))
    R = random_spd(rng, 2)
    S1 = Sensor(H=H, R=R).S
    S2 = Sensor(H=alpha * H, R=alpha**2 * R).S
    assert np.linalg.norm(S1 - S2) <= 1e-12 * max(np.linalg.norm(S1), 1.0)


# ----------------------------------------------------------------- polytope

def test_rate_caps_rejects_unconstrained_column():
    with pytest.raises(ValidationError):
        ResourcePolytope(C=np.array([[1.0, 0.0]]), b=np.array([1.0]))


@pytest.mark.parametrize("C, message", [
    ([1.0, 1.0], "^C must be a matrix, got ndim=1$"),
    ([[1.0, -1.0]], "^C must be elementwise nonnegative$"),
], ids=["vector", "negative"])
def test_polytope_refuses_a_malformed_c(C, message):
    with pytest.raises(ValidationError, match=message):
        ResourcePolytope(C=np.array(C), b=np.array([1.0]))


def test_polytope_accepts_zero_budget_rejects_negative():
    poly = ResourcePolytope(C=np.ones((1, 2)), b=np.array([0.0]))
    np.testing.assert_array_equal(poly.b, [0.0])
    with pytest.raises(ValidationError):
        ResourcePolytope(C=np.ones((1, 2)), b=np.array([-1.0]))


# ---------------------------------------------------------------- validation

def test_validate_zero_schedule_feasible():
    poly = ResourcePolytope(C=np.ones((1, 2)), b=np.array([5.0]))
    sched = Schedule(N=3, T=1.0, rates=np.zeros((3, 2)))
    rep = validate_schedule(sched, poly)
    assert rep.feasible
    assert rep.budget_violation <= 0.0


def test_validate_budget_violation():
    poly = ResourcePolytope(C=np.ones((1, 2)), b=np.array([5.0]))
    sched = Schedule(N=1, T=1.0, rates=np.array([[3.0, 3.0]]))
    rep = validate_schedule(sched, poly)
    assert not rep.feasible
    assert rep.budget_violation == pytest.approx(1.0)


def test_validate_dimension_mismatch():
    poly = ResourcePolytope(C=np.ones((1, 3)), b=np.array([5.0]))
    sched = Schedule(N=1, T=1.0, rates=np.zeros((1, 2)))
    with pytest.raises(ValidationError):
        validate_schedule(sched, poly)


def test_schedule_rejects_negative_rates():
    with pytest.raises(ValidationError):
        Schedule(N=2, T=1.0, rates=np.array([[0.5, -0.3], [0.0, 0.0]]))


@pytest.mark.parametrize("N, T, rates, message", [
    (0, 1.0, np.zeros((0, 1)), "^N must be >= 1, got 0$"),
    (2, 0.0, np.zeros((2, 1)), "^T must be positive, got 0.0$"),
    (2, -1.0, np.zeros((2, 1)), "^T must be positive, got -1.0$"),
    (2, 1.0, np.zeros((3, 1)),
     r"^rates must have shape \(2, M\), got \(3, 1\)$"),
    (2, 1.0, np.zeros(2), r"^rates must have shape \(2, M\), got \(2,\)$"),
    (2, 1.0, np.array([[0.0], [np.nan]]),
     "^rates contain non-finite entries$"),
], ids=["no-stage", "zero-T", "negative-T", "rows", "vector", "non-finite"])
def test_schedule_refuses_a_malformed_field(N, T, rates, message):
    with pytest.raises(ValidationError, match=message):
        Schedule(N=N, T=T, rates=rates)


def test_schedule_clips_roundoff_negatives():
    sched = Schedule(N=1, T=1.0, rates=np.array([[-1e-14, 1.0]]))
    assert sched.rates[0, 0] == 0.0


# -------------------------------------------------------------- system types

def test_system_model_rejects_asymmetric_q():
    Q = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        SystemModel(n=2, A=np.zeros((2, 2)), Q=Q, P0=np.eye(2), T=1.0)


def test_system_model_rejects_indefinite_p0():
    with pytest.raises(ValidationError):
        SystemModel(n=2, A=np.zeros((2, 2)), Q=np.eye(2),
                    P0=np.diag([1.0, -1.0]), T=1.0)


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e308])
def test_system_model_checks_hold_at_any_scale(scale):
    # the symmetry and semidefiniteness checks divide by the largest entry
    # before taking norms, which past 1.3e154 would overflow to inf and
    # pass anything, and symmetrize without forming x + x^T, which past
    # 9e307 would: each shape gets its scale-1 verdict, with no warning
    def system(Q=np.eye(2), P0=np.eye(2)):
        return SystemModel(n=2, A=np.zeros((2, 2)), Q=Q, P0=P0, T=1.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match="Q is not positive semidefinite"):
            system(Q=-scale * np.eye(2))
        with pytest.raises(ValidationError, match="P0 is not symmetric"):
            system(P0=scale * np.array([[1.0, 0.1], [0.0, 1.0]]))
        sys = system(Q=scale * np.eye(2), P0=scale * np.eye(2))
    assert np.array_equal(sys.P0, scale * np.eye(2))


def test_system_model_stores_a_prior_near_the_largest_float():
    # symmetrizing by (x + x^T) / 2, or the prior's floor by a sum over its
    # eigenvalues, overflows here; the model keeps the floats it was given
    P0 = np.array([[1e308, 1e307], [1e307, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sys = SystemModel(n=2, A=np.zeros((2, 2)), Q=np.eye(2), P0=P0, T=1.0)
    np.testing.assert_array_equal(sys.P0, P0)


@pytest.mark.parametrize("diag,name", [
    ([1e12, 1e-3], "P0 is"),        # P0's own min eigenvalue under its floor
    ([2e12, 1.0, 1.0], "P0^-1 is"),  # P0 clears it, its inverse does not
])
def test_system_model_rejects_a_prior_under_the_pd_floor(diag, name):
    # the floor is riccati's: a prior that passes here starts every
    # covariance and information path above it
    n = len(diag)
    with pytest.raises(ValidationError, match=name.replace("^", r"\^")):
        SystemModel(n=n, A=np.zeros((n, n)), Q=np.eye(n), P0=np.diag(diag),
                    T=1.0)


@pytest.mark.parametrize("diag", [[1e11, 1.0], [1e11, 1.0, 1.0],
                                  [1.0, 1e-11]])
def test_a_prior_that_loads_clears_the_pd_floor_both_ways(diag):
    n = len(diag)
    sys = SystemModel(n=n, A=np.zeros((n, n)), Q=np.eye(n), P0=np.diag(diag),
                      T=1.0)
    require_pd(sys.P0)
    require_pd(np.linalg.inv(sys.P0))


def test_a_prior_whose_trace_overflows_clears_the_one_floor():
    # trace(P0) = 2.4e308 overflows, trace / n would read an infinite floor;
    # the one floor sums d / n, so the prior that loads passes require_pd
    P0 = 6e307 * np.eye(4)
    sys = SystemModel(n=4, A=np.zeros((4, 4)), Q=np.eye(4), P0=P0, T=1.0)
    assert pd_floor(np.diag(sys.P0)) == PD_FLOOR_REL * 6e307
    require_pd(sys.P0)
    require_pd(np.stack([sys.P0, np.eye(4)]))


def test_system_model_rejects_nonpositive_horizon():
    with pytest.raises(ValidationError):
        SystemModel(n=1, A=np.zeros((1, 1)), Q=np.zeros((1, 1)), P0=np.eye(1),
                    T=0.0)


def test_sensor_caches_information_increment():
    H = np.array([[1.0, 0.0]])
    R = np.array([[4.0]])
    s = Sensor(H=H, R=R)
    np.testing.assert_allclose(s.S, H.T @ np.linalg.inv(R) @ H)
    assert len(s.H) == 1


def test_sensor_stores_a_noise_near_the_largest_float(tmp_path):
    # symmetrizing R by (R + R^T) / 2 overflows here; the sensor keeps the
    # float it was given, and so does a JSON round trip
    s = Sensor(H=[[1.0]], R=[[1e308]])
    np.testing.assert_array_equal(s.R, [[1e308]])
    np.testing.assert_array_equal(s.S, [[1e-308]])
    system = SystemModel(n=1, A=np.zeros((1, 1)), Q=np.eye(1), P0=np.eye(1),
                         T=1.0)
    inst = Instance(system=system, sensors=(s,),
                    polytope=ResourcePolytope(C=np.ones((1, 1)), b=np.ones(1)),
                    weights=WeightSpec(W_stages=None, W_T=np.eye(1)))
    save_instance(tmp_path / "inst.json", inst)
    np.testing.assert_array_equal(
        load_instance(tmp_path / "inst.json").sensors[0].R, [[1e308]])


def test_instance_rejects_sensor_dimension_mismatch():
    system = SystemModel(n=2, A=np.zeros((2, 2)), Q=np.eye(2), P0=np.eye(2),
                         T=1.0)
    bad = Sensor(H=np.ones((1, 3)), R=np.eye(1))
    poly = ResourcePolytope(C=np.ones((1, 1)), b=np.ones(1))
    with pytest.raises(ValidationError):
        Instance(system=system, sensors=(bad,), polytope=poly,
                 weights=WeightSpec(W_stages=None, W_T=np.eye(2)))


def test_instance_rejects_polytope_sensor_count_mismatch():
    system = SystemModel(n=2, A=np.zeros((2, 2)), Q=np.eye(2), P0=np.eye(2),
                         T=1.0)
    s = Sensor(H=np.ones((1, 2)), R=np.eye(1))
    poly = ResourcePolytope(C=np.ones((1, 3)), b=np.ones(1))
    with pytest.raises(ValidationError):
        Instance(system=system, sensors=(s,), polytope=poly,
                 weights=WeightSpec(W_stages=None, W_T=np.eye(2)))


# ----------------------------------------------------------- random instance

def test_random_instance_orthonormal_rows():
    inst = random_instance(InstanceSpec(n=5, M=6, p=2, seed=11))
    for s in inst.sensors:
        np.testing.assert_allclose(s.H @ s.H.T, np.eye(2), atol=1e-10)


def test_random_instance_noise_eigenvalue_range():
    inst = random_instance(InstanceSpec(n=4, M=8, p=2, seed=3))
    for s in inst.sensors:
        eigs = np.linalg.eigvalsh(s.R)
        assert np.all(eigs >= 1.0 - 1e-9)
        assert np.all(eigs <= 10.0 + 1e-9)


def test_random_instance_deterministic():
    a = random_instance(InstanceSpec(n=3, M=4, p=1, seed=7))
    b = random_instance(InstanceSpec(n=3, M=4, p=1, seed=7))
    assert np.array_equal(a.system.A, b.system.A)
    assert all(np.array_equal(x.H, y.H) and np.array_equal(x.R, y.R)
               for x, y in zip(a.sensors, b.sensors))


def test_random_instance_stability_split():
    inst = random_instance(InstanceSpec(n=5, M=2, p=1, seed=0))
    eigs = np.sort(np.linalg.eigvalsh(inst.system.A))
    stable = eigs[eigs < 0]
    unstable = eigs[eigs > 0]
    assert len(stable) == 3 and len(unstable) == 2
    assert np.all((stable >= -1.0) & (stable <= -0.1))
    assert np.all((unstable >= 0.1) & (unstable <= 1.0))


def test_random_instance_fixed_conventions():
    inst = random_instance(InstanceSpec(n=3, M=2, p=1, seed=5, T=2.5,
                                        budget=4.0))
    np.testing.assert_array_equal(inst.system.Q, np.eye(3))
    np.testing.assert_array_equal(inst.system.P0, 100.0 * np.eye(3))
    np.testing.assert_array_equal(inst.polytope.C, np.ones((1, 2)))
    np.testing.assert_array_equal(inst.polytope.b, [4.0])
    assert inst.T == 2.5
    assert inst.weights.W_stages is None
    np.testing.assert_array_equal(inst.weights.W_T, np.eye(3))


def test_random_instance_rejects_p_above_n():
    with pytest.raises(ValidationError):
        random_instance(InstanceSpec(n=2, M=1, p=3, seed=0))


def test_random_instance_needs_a_sensor():
    with pytest.raises(ValidationError,
                       match="^need at least one sensor, got M=0$"):
        random_instance(InstanceSpec(n=2, M=0))


# ----------------------------------------------------------------- JSON I/O

def test_instance_json_round_trip(tmp_path):
    inst = random_instance(InstanceSpec(n=3, M=2, p=2, seed=9))
    path = tmp_path / "inst.json"
    save_instance(path, inst)
    back = load_instance(path)
    np.testing.assert_array_equal(back.system.A, inst.system.A)
    np.testing.assert_array_equal(back.system.P0, inst.system.P0)
    for s0, s1 in zip(inst.sensors, back.sensors):
        np.testing.assert_array_equal(s0.H, s1.H)
        np.testing.assert_array_equal(s0.R, s1.R)
    np.testing.assert_array_equal(back.polytope.C, inst.polytope.C)


def test_instance_json_keys(tmp_path):
    inst = random_instance(InstanceSpec(n=2, M=1, p=1, seed=1))
    path = tmp_path / "inst.json"
    save_instance(path, inst)
    data = json.loads(path.read_text())
    assert set(data) == {"n", "T", "A", "Q", "P0", "sensors",
                         "constraints", "weights"}
    assert set(data["constraints"]) == {"C", "b"}
    assert set(data["weights"]) == {"W_stages", "WT"}
    assert data["weights"]["W_stages"] is None


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_report_refuses_a_non_finite_number_and_writes_nothing(tmp_path,
                                                                  bad):
    # JSON has no NaN or Infinity: the payload is refused before the file
    # is opened, so no partial report is left
    with pytest.raises(ValueError, match="Out of range float values"):
        _dump_json(tmp_path / "r.json", {"mean": 1.0, "std": [0.5, bad]})
    assert list(tmp_path.iterdir()) == []


def test_schedule_json_round_trip(tmp_path):
    sched = Schedule(N=3, T=2.0, rates=np.array([[0.1, 0.2], [0.3, 0.4],
                                                 [0.5, 0.6]]))
    path = tmp_path / "sched.json"
    save_schedule(path, sched)
    back = load_schedule(path)
    assert back.N == 3 and back.T == 2.0
    np.testing.assert_array_equal(back.rates, sched.rates)


def test_instance_dict_round_trip_with_stage_weights():
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=4))
    W = np.stack([np.eye(2), 2.0 * np.eye(2)])
    inst = Instance(system=inst.system, sensors=inst.sensors,
                    polytope=inst.polytope,
                    weights=WeightSpec(W_stages=W, W_T=np.eye(2)))
    back = instance_from_dict(instance_to_dict(inst))
    np.testing.assert_array_equal(back.weights.W_stages, W)


def test_a_count_that_int_would_truncate_is_refused():
    # int() reads 2.9 as 2: the loaders refuse it, and take a whole float
    inst = instance_to_dict(random_instance(InstanceSpec(n=2, M=2, seed=4)))
    sched = schedule_to_dict(Schedule(N=2, T=1.0, rates=np.ones((2, 2))))
    with pytest.raises(ValidationError, match="n must be a whole number, "
                                              "got 2.9"):
        instance_from_dict(inst | {"n": 2.9})
    with pytest.raises(ValidationError, match="N must be a whole number, "
                                              "got 2.5"):
        schedule_from_dict(sched | {"N": 2.5})
    assert instance_from_dict(inst | {"n": 2.0}).n == 2
    assert schedule_from_dict(sched | {"N": 2.0}).N == 2


def _numeric_leaves(node, path=()):
    """The path of every number in a JSON payload."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numeric_leaves(value, path + (i,))
    elif isinstance(node, (int, float)):
        yield path


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_a_non_finite_number_anywhere_in_an_instance_is_refused(bad):
    # every number of a valid payload (sensors of p = 1 and 2, running
    # weights, two constraint rows), set to NaN or +-inf in turn
    inst = random_instance(InstanceSpec(n=2, M=2, p=2, seed=4))
    row = Sensor(H=[[1.0, 0.5]], R=[[2.0]])
    inst = Instance(
        system=inst.system, sensors=(row,) + inst.sensors,
        polytope=ResourcePolytope(C=[[1.0, 1.0, 1.0], [0.0, 2.0, 1.0]],
                                  b=[3.0, 2.0]),
        weights=WeightSpec(W_stages=[np.eye(2), [[2.0, 0.5], [0.5, 1.0]]],
                           W_T=np.eye(2)))
    payload = instance_to_dict(inst)
    leaves = list(_numeric_leaves(payload))
    assert {path[0] for path in leaves} == set(payload)
    assert {path[1] for path in leaves if path[0] == "weights"} == {
        "W_stages", "WT"}
    accepted = []
    for path in leaves:
        data = json.loads(json.dumps(payload))
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        try:
            instance_from_dict(data)
        except ValidationError:
            continue
        accepted.append(path)
    assert accepted == []


@pytest.mark.parametrize("stage,error", [
    ([[1.0, 0.5], [0.0, 1.0]], "W_stages[2] is not symmetric"),
    (-np.eye(2), "W_stages[2] is not positive semidefinite"),
    ([[1.0, math.nan], [math.nan, 1.0]], "W_stages[2] contains non-finite"),
], ids=["skew", "indefinite", "nan"])
def test_a_bad_stage_weight_is_named(stage, error):
    # the stack is checked at once; the error names the first bad stage
    stages = [np.eye(2), np.eye(2), stage, stage]
    with pytest.raises(ValidationError, match=error.replace("[", r"\[")):
        WeightSpec(W_stages=stages, W_T=np.eye(2))


def test_stage_weights_are_stored_as_their_symmetric_part():
    skew = np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]])
    weights = WeightSpec(W_stages=[skew, np.eye(2)], W_T=np.eye(2))
    np.testing.assert_array_equal(weights.W_stages[0],
                                  0.5 * skew + 0.5 * skew.T)
    np.testing.assert_array_equal(weights.W_stages[0],
                                  weights.W_stages[0].T)


# ----------------------------------------------------- frozen value contract

def test_model_arrays_read_only():
    inst = random_instance(InstanceSpec(n=2, M=1, p=1, seed=2))
    with pytest.raises(ValueError):
        inst.system.A[0, 0] = 5.0
    with pytest.raises(ValueError):
        inst.sensors[0].S[0, 0] = 5.0
