import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from infosched import cdkf
from infosched.cdkf import (
    ArrivalRecord,
    rollout_covariance,
    rollout_information,
)
from infosched.model import (
    Instance,
    InstanceSpec,
    ResourcePolytope,
    Schedule,
    Sensor,
    SystemModel,
    ValidationError,
    WeightSpec,
    random_instance,
)
from infosched.montecarlo import run_seed, sample_arrivals
from infosched.riccati import (
    PositiveDefinitenessError,
    flow_cov,
    invert_trajectory,
    jump_cov,
    lyapunov_maps,
    time_grid,
)

from conftest import (
    arrivals, break_the_walk, make_scalar_instance, rng_for,
)


# ------------------------------------------------------------ arrival record

def test_arrival_record_sorts_events():
    rec = ArrivalRecord(times=np.array([0.9, 0.1, 0.5]),
                        sensors=np.array([0, 2, 1]))
    np.testing.assert_array_equal(rec.times, [0.1, 0.5, 0.9])
    np.testing.assert_array_equal(rec.sensors, [2, 1, 0])


def test_arrival_record_ties_sorted_by_sensor():
    rec = ArrivalRecord(times=np.array([0.5, 0.5]), sensors=np.array([1, 0]))
    np.testing.assert_array_equal(rec.sensors, [0, 1])


@pytest.mark.parametrize("times, sensors, message", [
    ([0.1, 0.2], [0], r"^times and sensors must align, got \(2,\) vs \(1,\)$"),
    ([0.1, np.inf], [0, 0], "^arrival times contain non-finite entries$"),
    ([0.1, 0.2], [0, -1], "^sensor indices must be nonnegative$"),
    ([0.5, 0.7], [1.7, True], "^sensor indices must be whole numbers$"),
    ([0.5, 0.7], [0, np.nan], "^sensor indices must be whole numbers$"),
], ids=["misaligned", "non-finite", "negative-sensor", "fractional-sensor",
        "nan-sensor"])
def test_arrival_record_refuses_a_malformed_record(times, sensors, message):
    with pytest.raises(ValidationError, match=message):
        ArrivalRecord(times=np.array(times), sensors=np.array(sensors))


def test_rollout_rejects_out_of_range_arrivals():
    inst = make_scalar_instance(T=1.0)
    late = arrivals([(1.5, 0)])
    with pytest.raises(ValidationError):
        rollout_covariance(inst, late, n_eval=4)
    bad_sensor = arrivals([(0.5, 3)])
    with pytest.raises(ValidationError):
        rollout_covariance(inst, bad_sensor, n_eval=4)


# ------------------------------------------------------------------ rollouts

def test_rollout_covariance_scalar_ladder():
    # static scalar state: each unit-information arrival maps p to p/(1+p)
    inst = make_scalar_instance(a=0.0, q=0.0, h=1.0, r=1.0, p0=1.0, T=1.0)
    arr = arrivals([(0.5, 0), (1.0, 0)])
    traj = rollout_covariance(inst, arr, n_eval=2)
    np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0])
    vals = traj.values[:, 0, 0]
    np.testing.assert_allclose(vals, [1.0, 0.5, 1.0 / 3.0], rtol=1e-12)


def test_rollout_information_scalar_ladder():
    inst = make_scalar_instance(a=0.0, q=0.0, h=1.0, r=1.0, p0=1.0, T=1.0)
    arr = arrivals([(0.5, 0), (1.0, 0)])
    traj = rollout_information(inst, arr, n_eval=2)
    np.testing.assert_allclose(traj.values[:, 0, 0], [1.0, 2.0, 3.0],
                               rtol=1e-12)


def test_rollout_empty_arrivals_is_lyapunov():
    inst = random_instance(InstanceSpec(n=3, M=2, p=1, seed=8, T=1.5))
    empty = arrivals([])
    traj = rollout_covariance(inst, empty, n_eval=30)
    direct = flow_cov(inst.system.P0, inst.system.A, inst.system.Q, 1.5,
                      substeps=30 * 6)
    np.testing.assert_allclose(traj.values[-1], direct, rtol=1e-9)


def test_rollout_cut_as_long_as_the_longest_grid_interval():
    # rounding makes the grid intervals differ: on T=3, n_eval=10 the gap
    # from an arrival an ulp after node 6 to node 7 exceeds the first
    # interval, and the walk's map family must still admit it
    inst = make_scalar_instance(a=-0.5, q=1.0, T=3.0)
    grid = time_grid(3.0, 10)
    late = np.nextafter(grid[6], np.inf)
    assert grid[7] - late > grid[1] - grid[0]
    cut = rollout_covariance(inst, arrivals([(late, 0)]), n_eval=10)
    on_node = rollout_covariance(inst, arrivals([(grid[6], 0)]), n_eval=10)
    np.testing.assert_allclose(cut.values[7:], on_node.values[7:],
                               rtol=1e-14)


def test_rollout_failure_names_no_substeps():
    # an exploding exact map is a typed error; a rollout has no substeps
    inst = make_scalar_instance(a=400.0, q=1.0, T=3.0)
    with pytest.raises(PositiveDefinitenessError) as exc, \
            np.errstate(all="ignore"):
        rollout_covariance(inst, arrivals([]), n_eval=1)
    assert "non-finite" in str(exc.value)
    assert "substeps" not in str(exc.value)


def test_rollout_overflowing_map_is_typed():
    # the map family's own finiteness check, reached through the walk
    inst = make_scalar_instance(a=1e5, q=1.0, T=1.0)
    with pytest.raises(PositiveDefinitenessError,
                       match="non-finite covariance map"), \
            np.errstate(all="ignore"):
        rollout_covariance(inst, arrivals([(0.5, 0)]), n_eval=100)


@pytest.mark.parametrize("breaks, events, n_eval, message", [
    (["node"], [], 4, "node"),
    (["arrival"], [(0.4, 0)], 4, "arrival"),
    (["node"], [], 20, "at node t=0.7 in run 0"),
    (["node", "arrival"], [(0.72, 0)], 20, "at node t=0.7 in run 0"),
    (["node", "singular"], [(0.72, 0)], 20, "at node t=0.7 in run 0"),
], ids=["node", "arrival", "node-in-a-later-block", "node-then-arrival",
        "node-then-singular"])
def test_rollout_pd_loss_is_typed(monkeypatch, breaks, events, n_eval,
                                  message):
    # the walk checks each round's recorded nodes, then its gain update:
    # the run's earliest loss in time is reported, before a later loss or
    # failure; a loss is a PositiveDefinitenessError, never malformed input
    if n_eval == 20:
        # the loss at node 14 (t = 0.7) and the arrival at 0.72 both fall in
        # round 0, the node first
        grid = time_grid(1.0, n_eval)
        assert grid[13] < np.log(2.0) < grid[14] < 0.72 < grid[15]
    inst = make_scalar_instance(a=-0.5, q=1.0, T=1.0)
    for how in breaks:
        break_the_walk(monkeypatch, how)
    with pytest.raises(PositiveDefinitenessError, match=message):
        rollout_covariance(inst, arrivals(events), n_eval=n_eval)


def test_rollout_information_no_arrivals_harmonic():
    inst = make_scalar_instance(a=0.0, q=1.0, p0=1.0, T=1.0)
    traj = rollout_information(inst, arrivals([]), n_eval=10)
    assert abs(traj.values[-1, 0, 0] - 0.5) <= 1e-8


def test_rollout_coordinate_duality():
    inst = random_instance(InstanceSpec(n=3, M=3, p=1, seed=13, T=2.0))
    rng = rng_for(99)
    times = np.sort(rng.uniform(0.0, 2.0, size=7))
    sensors = rng.integers(0, 3, size=7)
    arr = ArrivalRecord(times=times, sensors=sensors)
    p_traj = rollout_covariance(inst, arr, n_eval=40)
    y_traj = rollout_information(inst, arr, n_eval=40)
    dual = invert_trajectory(y_traj)
    for got, want in zip(dual.values, p_traj.values):
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err <= 1e-7


def test_rollout_coincident_arrivals_ascending_sensor():
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=21, T=1.0))
    arr = ArrivalRecord(times=np.array([0.5, 0.5]), sensors=np.array([1, 0]))
    traj = rollout_covariance(inst, arr, n_eval=2)
    # manual: flow to 0.5 (RK4 converged to roundoff), jump sensor 0 then
    # sensor 1, flow to 1.0
    P = flow_cov(inst.system.P0, inst.system.A, inst.system.Q, 0.5,
                 substeps=400)
    P = jump_cov(jump_cov(P, inst.sensors[0]), inst.sensors[1])
    np.testing.assert_allclose(traj.values[1], P, rtol=1e-12)


def _scalar_oracle(a, q, p0, events, t):
    # p' = 2 a p + q between arrivals: p(s) = (p + q/2a) e^{2as} - q/2a;
    # p -> p / (1 + p) at each arrival (h = r = 1)
    def flow(p, s):
        return (p + q / (2 * a)) * np.exp(2 * a * s) - q / (2 * a)

    start, p = 0.0, p0
    for te in events:
        if te > t:
            break
        p = flow(p, te - start)
        p = p / (1.0 + p)
        start = te
    return flow(p, t - start)


def test_rollout_scalar_closed_form_with_arrivals():
    a, q, p0 = -0.4, 0.3, 1.5
    inst = make_scalar_instance(a=a, q=q, p0=p0, T=1.0)
    # a double arrival, one on a grid node, the rest cutting grid steps
    events = [0.05, 0.23, 0.23, 0.5, 0.777, 0.999]
    arr = arrivals([(t, 0) for t in events])
    traj = rollout_covariance(inst, arr, n_eval=10)
    want = [_scalar_oracle(a, q, p0, events, t) for t in traj.times]
    np.testing.assert_allclose(traj.values[:, 0, 0], want, rtol=1e-13)


def _defective_instance(seed, zero_q):
    # n = 3, A similar to a 3x3 Jordan block; p = 2 sensors
    rng = rng_for(seed)
    lam = rng.uniform(-1.0, 0.5)
    J = lam * np.eye(3) + np.diag(np.ones(2), 1)
    V = np.linalg.qr(rng.normal(size=(3, 3)))[0] + 0.3 * np.eye(3)
    A = V @ J @ np.linalg.inv(V)
    B = rng.normal(size=(3, 3))
    Q = np.zeros((3, 3)) if zero_q else 0.3 * B @ B.T
    system = SystemModel(n=3, A=A, Q=Q, P0=np.eye(3), T=1.0)
    sensors = []
    for _ in range(2):
        C = rng.normal(size=(2, 2))
        sensors.append(Sensor(H=rng.normal(size=(2, 3)),
                              R=C @ C.T + 0.1 * np.eye(2)))
    return Instance(system=system, sensors=tuple(sensors),
                    polytope=ResourcePolytope(C=np.ones((1, 2)),
                                              b=np.ones(1)),
                    weights=WeightSpec(W_stages=None, W_T=np.eye(3)))


@given(st.integers(0, 10_000), st.booleans(), st.integers(0, 6))
def test_rollout_matches_fine_rk4_on_defective_a(seed, zero_q, n_arrivals):
    inst = _defective_instance(seed, zero_q)
    rng = rng_for(seed + 1)
    arr = ArrivalRecord(times=rng.uniform(0.0, 1.0, size=n_arrivals),
                        sensors=rng.integers(0, 2, size=n_arrivals))
    traj = rollout_covariance(inst, arr, n_eval=10)
    # reference: RK4 at 200 steps per segment between the same stops
    sys = inst.system
    grid = set(traj.times.tolist())
    P, prev, ei, ref = sys.P0, 0.0, 0, []
    for t in np.union1d(traj.times, arr.times):
        if t > prev:
            P = flow_cov(P, sys.A, sys.Q, t - prev, substeps=200)
        while ei < arr.n_events and arr.times[ei] == t:
            P = jump_cov(P, inst.sensors[int(arr.sensors[ei])])
            ei += 1
        if t in grid:
            ref.append(P)
        prev = t
    for got, want in zip(traj.values, ref):
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


@pytest.mark.parametrize("seed, count", [(3, 37), (8, 301)])
def test_map_powers_match_repeated_grid_steps(seed, count):
    # the doubled maps of j grid steps against j steps of the grid map, on a
    # defective A, and the map of j steps does not depend on count
    sys = _defective_instance(seed, zero_q=False).system
    step = 3.0 / (count - 1)
    phi, w = (m[0] for m in lyapunov_maps(sys.A, sys.Q, step)([step]))
    phis, ws = cdkf._map_powers(phi, w, count)
    Phi, W = np.eye(3), np.zeros((3, 3))
    for j in range(count):
        assert np.linalg.norm(phis[j] - Phi) <= 1e-13 * np.linalg.norm(Phi)
        assert np.linalg.norm(ws[j] - W) <= 1e-13 * np.linalg.norm(W)
        Phi, W = phi @ Phi, phi @ W @ phi.T + w
    fewer = cdkf._map_powers(phi, w, count // 2)
    np.testing.assert_array_equal(fewer[0], phis[:count // 2])
    np.testing.assert_array_equal(fewer[1], ws[:count // 2])


def test_rollout_grid_node_records_post_jump():
    inst = make_scalar_instance(a=0.0, q=0.0, p0=1.0, T=1.0)
    arr = arrivals([(0.5, 0)])
    traj = rollout_covariance(inst, arr, n_eval=2)
    assert traj.values[1, 0, 0] == pytest.approx(0.5, rel=1e-12)


def test_arrival_jump_decreases_trace():
    inst = random_instance(InstanceSpec(n=4, M=3, p=2, seed=17, T=1.0))
    rng = rng_for(5)
    times = np.sort(rng.uniform(0.05, 0.95, size=5))
    arr = ArrivalRecord(times=times, sensors=rng.integers(0, 3, size=5))
    fine = rollout_covariance(inst, arr, n_eval=400)
    traces = np.trace(fine.values, axis1=1, axis2=2)
    for t in times:
        i = np.searchsorted(fine.times, t)
        # nearest node at/after the jump sits below the pre-jump level
        assert traces[min(i, len(traces) - 1)] < traces[i - 1]


# ------------------------------------------------- estimation error (scalar)

def _scalar_filter_run(a, q, r, p0, record, grid, rng):
    """Truth x, mean m and variance p of the scalar filter (h = 1, m0 = 0)
    along one arrival record, stepped exactly between its stops by
    Phi = e^{a d}, W = q (e^{2 a d} - 1) / (2 a) and the scalar gain.
    Returns p at the grid nodes and the error x - m at T."""
    x = np.sqrt(p0) * rng.standard_normal()
    m, p, t = 0.0, p0, 0.0
    # an arrival comes before the node at its instant
    stops = sorted([(s, False) for s in record.times]
                   + [(s, True) for s in grid])
    path = []
    for s, is_node in stops:
        phi = np.exp(a * (s - t))
        w = q * np.expm1(2.0 * a * (s - t)) / (2.0 * a)
        x = phi * x + np.sqrt(w) * rng.standard_normal()
        m, p, t = phi * m, phi * p * phi + w, s
        if is_node:
            path.append(p)
        else:
            z = x + np.sqrt(r) * rng.standard_normal()
            k = p / (p + r)
            m, p = m + k * (z - m), p - k * p
    return np.array(path), x - m


def test_estimation_error_matches_the_filter_variance():
    # the rollout is the variance of x - m: its path is the scalar filter's,
    # and the empirical variance of x(T) - m(T) over runs with sampled
    # arrivals matches the mean filter variance P(T)
    a, q, r, p0 = -0.5, 0.5, 0.5, 1.0
    inst = make_scalar_instance(a=a, q=q, h=1.0, r=r, p0=p0, T=1.0)
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 1), 2.0))
    grid = time_grid(1.0, 4)
    rng = rng_for(2000)
    errors, p_terminal = [], []
    for run in range(2000):
        record = sample_arrivals(sched, run_seed(0, run))
        path, error = _scalar_filter_run(a, q, r, p0, record, grid, rng)
        want = rollout_covariance(inst, record, n_eval=4).values[:, 0, 0]
        np.testing.assert_allclose(path, want, rtol=1e-12)
        errors.append(error)
        p_terminal.append(path[-1])
    filt = np.mean(p_terminal)
    assert abs(np.var(errors, ddof=1) - filt) / filt <= 0.10
