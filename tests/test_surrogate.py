import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from infosched import riccati, surrogate
from infosched.cdkf import ArrivalRecord, rollout_covariance
from infosched.model import (
    InstanceSpec,
    ResourcePolytope,
    Schedule,
    ValidationError,
    random_instance,
)
from infosched.optimize import ShootingProblem, _info_forward
from infosched.riccati import (
    PositiveDefinitenessError,
    Trajectory,
    flow_cov,
    flow_info,
    invert_trajectory,
    pathwise_cost,
)
from infosched.surrogate import (
    integrate_cov_surrogate,
    integrate_info_surrogate,
    stage_increments,
)

from conftest import (
    make_scalar_instance,
    mixed_instance,
    random_spd,
    rng_for,
)

# frozen oracle: p solving ln p - 1/p = -3 (static scalar unit sensor,
# rate 2 over unit horizon, p0 = 1); brentq-confirmed below
COV_SURROGATE_ROOT = 0.452910851609152


def uniform_schedule(inst, N, level):
    return Schedule(N=N, T=inst.T, rates=np.full((N, inst.M), level))


def surrogate_cost(inst, sched, integrate, substeps):
    # a surrogate's objective: its path at substep resolution, reduced by
    # the one quadrature of every objective
    return pathwise_cost(integrate(inst, sched, substeps), inst.weights,
                         inst.T)


# ------------------------------------------------------------- info integrator

def test_info_surrogate_scalar_linear_growth():
    inst = make_scalar_instance(a=0.0, q=0.0, h=1.0, r=1.0, p0=1.0, T=1.0)
    traj = integrate_info_surrogate(inst, uniform_schedule(inst, 4, 2.0),
                                    substeps=5)
    assert traj.values[-1, 0, 0] == pytest.approx(3.0, abs=1e-12)
    # y grows affinely: value at t equals 1 + 2t on every node
    np.testing.assert_allclose(traj.values[:, 0, 0], 1.0 + 2.0 * traj.times,
                               rtol=1e-12)


def test_info_surrogate_zero_rates_is_flow():
    inst = random_instance(InstanceSpec(n=3, M=2, p=1, seed=12, T=1.5))
    traj = integrate_info_surrogate(inst, uniform_schedule(inst, 5, 0.0),
                                    substeps=8)
    direct = flow_info(np.linalg.inv(inst.system.P0), inst.system.A,
                       inst.system.Q, 1.5, substeps=40)
    np.testing.assert_allclose(traj.values[-1], direct, rtol=1e-12)


def direct_cov_riccati(inst, sched, substeps, refine):
    """Oracle: RK4 on P' = AP + PA' + Q - P U_k P at refine-times finer
    resolution, sampled back onto the coarse substep grid.  The covariance
    coordinates are stiff near P0 = 100 I, so the reference must be run well
    past the coarse resolution to stand in for the exact flow."""
    U = stage_increments(inst, sched)
    A, Q = inst.system.A, inst.system.Q
    h = inst.T / (sched.N * substeps * refine)
    P = inst.system.P0.copy()
    out = [P.copy()]
    for k in range(sched.N):
        Uk = U[k]

        def rhs(X):
            return A @ X + X @ A.T + Q - X @ Uk @ X

        for s in range(substeps * refine):
            k1 = rhs(P)
            k2 = rhs(P + 0.5 * h * k1)
            k3 = rhs(P + 0.5 * h * k2)
            k4 = rhs(P + h * k3)
            P = P + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            P = 0.5 * (P + P.T)
            if (s + 1) % refine == 0:
                out.append(P.copy())
    return np.array(out)


def test_info_surrogate_duality_with_direct_riccati():
    # inverting the info path must reproduce the covariance-coordinate
    # Riccati flow; the identity is exact in continuous time, so the
    # reference is integrated at 50x resolution
    inst = random_instance(InstanceSpec(n=3, M=4, p=1, seed=31, T=2.0))
    rng = rng_for(7)
    N = 5
    rates = rng.uniform(0.0, 1.0, size=(N, 4))
    sched = Schedule(N=N, T=2.0, rates=rates)
    y_traj = integrate_info_surrogate(inst, sched, substeps=20)
    p_info = invert_trajectory(y_traj)
    ref = direct_cov_riccati(inst, sched, substeps=20, refine=50)
    for got, want in zip(p_info.values, ref):
        assert np.linalg.norm(got - want) / np.linalg.norm(want) <= 1e-7


def test_stage_increments_values():
    inst = random_instance(InstanceSpec(n=3, M=2, p=1, seed=2, T=1.0))
    sched = Schedule(N=2, T=1.0, rates=np.array([[0.5, 2.0], [0.0, 1.0]]))
    U = stage_increments(inst, sched)
    S0, S1 = inst.sensors[0].S, inst.sensors[1].S
    np.testing.assert_allclose(U[0], 0.5 * S0 + 2.0 * S1)
    np.testing.assert_allclose(U[1], S1)


def _euler_rate_jacobian(step, x, lam, d=0.5):
    """Rows d step(x, lam) / d lam_j of one explicit-Euler step, by central
    differences: both surrogate steps are affine in the rates, so the
    differences are exact up to roundoff."""
    rows = []
    for j in range(lam.size):
        e = d * np.eye(lam.size)[j]
        rows.append((step(x, lam + e) - step(x, lam - e)) / (2.0 * d))
    return np.stack(rows)


def test_rates_enter_the_info_step_apart_from_the_state():
    # the paper's mechanism: rates enter the info form through additive
    # increments, so its rate Jacobian is the same at every state (no mixed
    # state-rate derivative); the cov form's gain term weighs each rate by
    # a gain of the state, so its rate Jacobian moves with the state
    inst = mixed_instance(8)                # sensors of p = 1 and p = 2
    A, Q, h = inst.system.A, inst.system.Q, 0.05
    lam = np.linspace(0.5, 1.5, inst.M)
    gains = riccati.cov_gains(inst.H, inst.R)

    def info_step(Y, lam):
        sched = Schedule(N=1, T=inst.T, rates=lam[None])
        U = stage_increments(inst, sched)[0]
        return Y + h * (riccati.info_rhs(Y, A, Q) + U)

    def cov_step(P, lam):
        return P + h * riccati.cov_rhs(P, A, Q, gains.gain_term(P, lam))

    rng = rng_for(41)
    states = [random_spd(rng, inst.n), random_spd(rng, inst.n, 10.0)]
    info = [_euler_rate_jacobian(info_step, X, lam) for X in states]
    cov = [_euler_rate_jacobian(cov_step, X, lam) for X in states]
    # a difference of two steps carries the roundoff of the state's entries
    roundoff = 32 * np.finfo(float).eps * max(np.abs(X).max() for X in states)
    assert np.abs(info[0] - info[1]).max() <= roundoff
    assert np.abs(info[0] - h * inst.S).max() <= roundoff
    assert np.abs(cov[0] - cov[1]).max() >= 0.1 * np.abs(cov[0]).max()


# -------------------------------------------------------------- cov integrator

def test_cov_surrogate_zero_rates_is_flow():
    inst = random_instance(InstanceSpec(n=3, M=2, p=1, seed=12, T=1.5))
    traj = integrate_cov_surrogate(inst, uniform_schedule(inst, 5, 0.0),
                                   substeps=8)
    direct = flow_cov(inst.system.P0, inst.system.A, inst.system.Q, 1.5,
                      substeps=40)
    np.testing.assert_allclose(traj.values[-1], direct, rtol=1e-12)


def test_cov_surrogate_scalar_implicit_solution():
    inst = make_scalar_instance(a=0.0, q=0.0, h=1.0, r=1.0, p0=1.0, T=1.0)
    traj = integrate_cov_surrogate(inst, uniform_schedule(inst, 4, 2.0),
                                   substeps=25)
    p_T = traj.values[-1, 0, 0]
    # oracle: separable ODE p' = -lam p^2/(p+1) integrates to
    # ln p - 1/p = -lam t + (ln p0 - 1/p0)
    root = brentq(lambda p: np.log(p) - 1.0 / p + 3.0, 1e-6, 1.0,
                  xtol=1e-15)
    assert abs(root - COV_SURROGATE_ROOT) <= 1e-12
    assert abs(p_T - root) <= 1e-4
    assert abs(p_T - root) <= 1e-8      # RK4 at 100 steps is far tighter


@pytest.mark.parametrize("r", [0.25, 1.0, 4.0])
def test_cov_surrogate_scalar_invariant_along_the_path(r):
    # a = q = 0, h = 1, constant rate lam: p' = -lam p^2 / (p + r), so
    # ln p - r / p + lam t is constant along the exact path.  RK4 error at
    # 400 substeps per stage measured 2.1e-12 (r = 0.25), 4.4e-13 and 2.3e-14
    lam = 3.0
    inst = make_scalar_instance(a=0.0, q=0.0, h=1.0, r=r, p0=1.0, T=2.0)
    traj = integrate_cov_surrogate(inst, uniform_schedule(inst, 4, lam),
                                   substeps=400)
    p = traj.values[:, 0, 0]
    invariant = np.log(p) - r / p + lam * traj.times
    assert np.abs(invariant - invariant[0]).max() <= 1e-11


def test_cov_surrogate_skips_an_idle_sensor():
    # an all-zero rate column takes no part in the forward: removing the
    # sensor leaves the path unchanged bit for bit (mixed output dimensions)
    inst = mixed_instance(seed=41, budget=6.0)
    rates = rng_for(42).uniform(0.2, 1.0, size=(4, inst.M))
    rates[:, 2] = 0.0
    keep = [j for j in range(inst.M) if j != 2]
    small = replace(inst, sensors=[inst.sensors[j] for j in keep],
                    polytope=ResourcePolytope(C=np.ones((1, len(keep))),
                                              b=np.array([6.0])))
    full = integrate_cov_surrogate(inst, Schedule(N=4, T=inst.T, rates=rates),
                                   substeps=5)
    cut = integrate_cov_surrogate(
        small, Schedule(N=4, T=inst.T, rates=rates[:, keep]), substeps=5)
    np.testing.assert_array_equal(full.values, cut.values)


def test_surrogate_divergence_at_high_snr():
    # a nearly noiseless sensor: info form collapses p, cov form saturates
    inst = make_scalar_instance(a=0.0, q=0.0, h=1.0, r=1e-6, p0=1.0, T=1.0)
    sched = uniform_schedule(inst, 2, 2.0)
    y_T = integrate_info_surrogate(inst, sched, substeps=40).values[-1, 0, 0]
    p_info = 1.0 / y_T
    p_cov = integrate_cov_surrogate(inst, sched, substeps=40).values[-1, 0, 0]
    assert p_info == pytest.approx(1.0 / (1.0 + 2.0 / 1e-6), rel=1e-6)
    assert p_cov > 0.01
    assert p_info <= p_cov


def test_the_first_stop_that_leaves_the_cone_is_named():
    # from t = 0.5 a stiff input makes RK4 (one step per quarter) overshoot
    # through zero, and the later stops overflow.  The walk goes on without
    # a warning, and its one check of every stop names the first that fails:
    # the scalar RK4 steps of y' = u_k - y^2 say which
    inst = make_scalar_instance(q=1.0, budget=1e4, T=1.5)
    u = [0.0, 0.0, 1000.0, 1000.0, 1000.0, 1000.0]
    sched = Schedule(N=6, T=1.5, rates=np.array(u)[:, None])
    y, h, first = 1.0, 0.25, []
    for k, uk in enumerate(u):
        def f(y):
            return uk - y * y
        with np.errstate(all="ignore"):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        if not y > 0.0:
            first.append((k + 1) * h)
    assert first[0] == 0.75 and not np.isfinite(y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PositiveDefinitenessError,
                           match=r"in info surrogate near t=0\.75: min "
                                 r"eigenvalue .*; increase substeps"):
            integrate_info_surrogate(inst, sched, substeps=1)


def test_cov_surrogate_refuses_a_step_past_rk4_stability():
    # A = -100: the Lyapunov part's mode is -200, and RK4's real stability
    # interval ends near -2.785, so a step must be at most 0.0139.  On the
    # unit horizon 71 steps would grow P (still positive definite) without
    # bound, and are refused; 72 steps decay, if slowly
    def amplification(z):
        return 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0

    assert amplification(-200.0 / 71) > 1.0 > amplification(-200.0 / 72)
    inst = make_scalar_instance(a=-100.0, q=1.0)
    sched = uniform_schedule(inst, 1, 0.0)
    with pytest.raises(PositiveDefinitenessError,
                       match=r"step 1\.408e-02 is past RK4's stability "
                             r"limit .*; increase substeps"):
        integrate_cov_surrogate(inst, sched, substeps=71)
    p_T = integrate_cov_surrogate(inst, sched, substeps=72).values[-1, 0, 0]
    assert 0.0 < p_T < 1.0
    # the limit is on the eigenvalues, not on a norm: a non-normal A with
    # |A|_1 = 21 and rho(A) = 1 runs at a step of 0.1
    inst = random_instance(InstanceSpec(n=2, M=1, p=1, seed=6, T=1.0))
    inst = replace(inst, system=replace(
        inst.system, A=np.array([[-1.0, 20.0], [0.0, -1.0]])))
    integrate_cov_surrogate(inst, uniform_schedule(inst, 1, 0.5), substeps=10)


def test_cov_surrogate_refuses_a_step_stiff_in_its_gain_term():
    # A = 0, R = 1e-3 at rate 200: the gain term's slope is about the rate,
    # so h lam = 5 at 10 substeps is past RK4's limit, where the path grows
    # to 3e45 with every stop positive definite.  At 100 substeps h lam = 0.5
    inst = make_scalar_instance(q=1.0, r=1e-3, budget=200.0)
    sched = uniform_schedule(inst, 4, 200.0)
    with pytest.raises(PositiveDefinitenessError,
                       match=r"step 2\.500e-02 is past RK4's stability "
                             r"limit .*; increase substeps"):
        integrate_cov_surrogate(inst, sched, substeps=10)
    p_T = integrate_cov_surrogate(inst, sched, substeps=100).values[-1, 0, 0]
    assert p_T == pytest.approx(5.854e-3, rel=1e-3)


def test_a_non_finite_innovation_ends_as_lapack_does(monkeypatch):
    # P0 = 1e307 at a rate of 20 (h lam = 2.5, inside RK4's limit)
    # overflows the first stage point; the flat p = 1 gains then meet inf
    # and NaN innovations.  With the LAPACK solve on the stacks in their
    # place the path ends in the same typed error, and neither warns.
    inst = make_scalar_instance(q=1.0, r=1e-6, p0=1e307, budget=20.0)
    sched = uniform_schedule(inst, 4, 20.0)
    errors = []
    for gains in (riccati.RowGains, riccati.StackGains):
        monkeypatch.setattr(surrogate, "cov_gains", gains)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PositiveDefinitenessError,
                               match="non-finite entries") as err:
                integrate_cov_surrogate(inst, sched, substeps=2)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_a_finite_cov_stop_that_loses_the_cone_advises_substeps(
        monkeypatch):
    # a rate of -2 I takes P from I through zero at t = 0.5 with every stop
    # finite: more substeps may mend that, so the advice stays
    monkeypatch.setattr(surrogate, "cov_rhs",
                        lambda P, A, Q, G: -2.0 * np.eye(len(P)))
    inst = make_scalar_instance(q=1.0)
    with pytest.raises(PositiveDefinitenessError,
                       match=r"^matrix lost positive definiteness in cov "
                             r"surrogate near t=0\.5: .*; increase "
                             r"substeps$"):
        integrate_cov_surrogate(inst, uniform_schedule(inst, 2, 0.0),
                                substeps=4)


@pytest.mark.parametrize("integrate", [integrate_info_surrogate,
                                       integrate_cov_surrogate])
def test_a_surrogate_needs_a_substep(integrate):
    inst = make_scalar_instance(T=1.0)
    with pytest.raises(ValidationError,
                       match="^substeps must be >= 1, got 0$"):
        integrate(inst, uniform_schedule(inst, 2, 1.0), substeps=0)


# ----------------------------------------------------------------- objectives

def test_objectives_coincide_without_sensing():
    inst = random_instance(InstanceSpec(n=4, M=3, p=1, seed=3, T=1.0))
    sched = uniform_schedule(inst, 6, 0.0)
    j_info = surrogate_cost(inst, sched, integrate_info_surrogate, 10)
    j_cov = surrogate_cost(inst, sched, integrate_cov_surrogate, 10)
    lyap = np.trace(flow_cov(inst.system.P0, inst.system.A, inst.system.Q,
                             1.0, substeps=60))
    assert abs(j_info - j_cov) / j_cov <= 1e-7
    assert abs(j_cov - lyap) / lyap <= 1e-7


def test_info_objective_scalar_exact():
    inst = make_scalar_instance(a=0.0, q=0.0, h=1.0, r=1.0, p0=1.0, T=1.0)
    j = surrogate_cost(inst, uniform_schedule(inst, 2, 2.0),
                       integrate_info_surrogate, 10)
    assert abs(j - 1.0 / 3.0) <= 1e-12


def test_unknown_kind_rejected():
    # a surrogate kind is chosen where a design problem is posed
    inst = make_scalar_instance()
    with pytest.raises(ValidationError):
        ShootingProblem(instance=inst, N=2, kind="magic")


@given(st.integers(0, 10_000))
def test_info_objective_below_cov_objective(seed):
    rng = rng_for(seed)
    n = int(rng.integers(1, 4))
    M = int(rng.integers(1, 4))
    inst = random_instance(InstanceSpec(n=n, M=M, p=1, seed=seed, T=1.0,
                                        budget=4.0))
    rates = rng.uniform(0.0, 4.0 / M, size=(3, M))
    sched = Schedule(N=3, T=1.0, rates=rates)
    j_info = surrogate_cost(inst, sched, integrate_info_surrogate, 8)
    j_cov = surrogate_cost(inst, sched, integrate_cov_surrogate, 8)
    assert j_info <= j_cov + 1e-9 * max(1.0, j_cov)


@given(st.integers(0, 10_000))
def test_outer_ordering_pointwise(seed):
    # covariance surrogate dominates inverted info surrogate at every node
    rng = rng_for(seed)
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=seed, T=1.0,
                                        budget=3.0))
    rates = rng.uniform(0.0, 1.5, size=(4, 2))
    sched = Schedule(N=4, T=1.0, rates=rates)
    p_info = invert_trajectory(
        integrate_info_surrogate(inst, sched, substeps=6, n_eval=20))
    p_cov = integrate_cov_surrogate(inst, sched, substeps=6, n_eval=20)
    scale = np.trace(inst.system.P0) / inst.n
    for a, b in zip(p_cov.values, p_info.values):
        diff = 0.5 * (a + a.T) - 0.5 * (b + b.T)
        assert np.linalg.eigvalsh(diff).min() >= -1e-7 * scale


def test_info_rate_monotonicity():
    inst = random_instance(InstanceSpec(n=3, M=2, p=1, seed=10, T=1.0))
    low = uniform_schedule(inst, 4, 0.5)
    high = uniform_schedule(inst, 4, 1.5)
    y_low = integrate_info_surrogate(inst, low, substeps=8).values[-1]
    y_high = integrate_info_surrogate(inst, high, substeps=8).values[-1]
    assert np.linalg.eigvalsh(y_high - y_low).min() >= -1e-9


# -------------------------------------------------------------- grid handling

@pytest.mark.parametrize("n_eval", [0, -3])
def test_recording_grid_needs_an_interval(n_eval):
    inst = make_scalar_instance(T=1.0)
    sched = uniform_schedule(inst, 2, 1.0)
    with pytest.raises(ValidationError, match="n_eval must be >= 1"):
        integrate_info_surrogate(inst, sched, substeps=4, n_eval=n_eval)


def test_schedule_horizon_must_match_instance():
    inst = make_scalar_instance(T=1.0)
    sched = Schedule(N=2, T=2.0, rates=np.zeros((2, 1)))
    with pytest.raises(ValidationError):
        integrate_info_surrogate(inst, sched, substeps=4)


def test_default_grid_contains_stage_boundaries():
    # exactly one integrator node per substep, stage boundaries bit-shared
    # with the node grid (no micro-segments)
    inst = make_scalar_instance(T=3.0)
    sched = uniform_schedule(inst, 5, 0.4)
    traj = integrate_info_surrogate(inst, sched, substeps=7)
    assert len(traj.times) == 5 * 7 + 1
    boundaries = traj.times[::7]
    assert boundaries[0] == 0.0 and boundaries[-1] == 3.0
    np.testing.assert_allclose(boundaries, np.linspace(0.0, 3.0, 6),
                               rtol=0.0, atol=1e-12)


def counted_segments(monkeypatch):
    # (length, steps) of every segment the surrogate integrates
    segments = []
    real = surrogate._integrate

    def counting(x0, dt, n_steps, rhs):
        segments.append((dt, n_steps))
        return real(x0, dt, n_steps, rhs)

    monkeypatch.setattr(surrogate, "_integrate", counting)
    return segments


@pytest.mark.parametrize("kind", ["info", "cov"])
def test_explicit_grid_has_no_ulp_segments(monkeypatch, kind):
    # in floats, six of the 31 stage boundaries miss their node of the
    # 301-node grid by roundoff; by index each falls on it: one segment per
    # node gap
    segments = counted_segments(monkeypatch)
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=4, T=3.0))
    sched = uniform_schedule(inst, 30, 0.7)
    integrate = integrate_info_surrogate if kind == "info" \
        else integrate_cov_surrogate
    integrate(inst, sched, substeps=10, n_eval=300)
    assert len(segments) == 300
    assert min(dt for dt, _ in segments) > 0.5 * 3.0 / 300


@pytest.mark.parametrize("kind", ["info", "cov"])
def test_boundaries_off_the_grid_are_stops(monkeypatch, kind):
    # N = 3 stages recorded on n_eval = 7 intervals: in units of T / 21 the
    # nodes sit at multiples of 3 and the boundaries at multiples of 7, so
    # both inner boundaries fall between nodes and split their node gap
    segments = counted_segments(monkeypatch)
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=5, T=1.0))
    sched = Schedule(N=3, T=1.0,
                     rates=rng_for(5).uniform(0.2, 1.5, size=(3, 2)))
    integrate = integrate_info_surrogate if kind == "info" \
        else integrate_cov_surrogate
    traj = integrate(inst, sched, substeps=3, n_eval=7)
    stops = sorted(set(range(0, 22, 3)) | {7, 14})
    du = np.diff(stops)
    assert len(segments) == len(du) == 9
    assert [s for _, s in segments] == [-(-3 * d // 7) for d in du]
    np.testing.assert_allclose([dt for dt, _ in segments], du / 21.0,
                               rtol=1e-12)
    np.testing.assert_array_equal(traj.times, np.linspace(0.0, 1.0, 8))


def test_boundaries_off_the_grid_keep_the_stage_inputs():
    # a = q = 0: y(t) = y0 + sum_k lam_k s |[0, t] & stage k| exactly, so each
    # node sees the right stage's rate on either side of a boundary
    inst = make_scalar_instance(a=0.0, q=0.0, h=1.5, r=0.5, p0=2.0, T=1.0)
    lam = np.array([0.7, 2.0, 1.3])
    sched = Schedule(N=3, T=1.0, rates=lam[:, None])
    traj = integrate_info_surrogate(inst, sched, substeps=3, n_eval=7)
    starts = np.arange(3) / 3.0
    overlap = np.clip(traj.times[:, None] - starts, 0.0, 1.0 / 3.0)
    expected = 0.5 + 4.5 * overlap @ lam
    np.testing.assert_allclose(traj.values[:, 0, 0], expected, rtol=0.0,
                               atol=1e-12)


def test_each_recorded_path_is_checked_once(monkeypatch):
    # the integrators check every node they record, with their own message;
    # the Trajectory they return does not check the nodes a second time
    built = []
    monkeypatch.setattr(Trajectory, "__post_init__",
                        lambda self: built.append(self))
    inst = mixed_instance(seed=43)
    sched = uniform_schedule(inst, 3, 0.5)
    integrate_info_surrogate(inst, sched, substeps=2)
    integrate_cov_surrogate(inst, sched, substeps=2)
    _info_forward(inst, sched, substeps=2)
    rollout_covariance(inst, ArrivalRecord(times=[0.4], sensors=[1]), 10)
    assert built == []
