

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm
from scipy.linalg import expm_frechet, solve_continuous_lyapunov

from infosched.model import (
    Instance,
    ResourcePolytope,
    Sensor,
    SystemModel,
    ValidationError,
    WeightSpec,
    _sym,
)
from infosched.riccati import (
    COV,
    EXPM_DEGREE,
    INFO,
    PositiveDefinitenessError,
    Trajectory,
    expm,
    flow_cov,
    flow_info,
    hamiltonian_maps,
    invert_trajectory,
    jump_cov,
    jump_info,
    lyapunov_maps,
    node_weights,
    pathwise_cost,
    require_pd,
    stacked_gains,
    RowGains,
    cov_gains,
    cov_rhs,
)
from infosched import optimize

from conftest import (covariance_decrement, lapack_gains, mixed_instance,
                      random_spd, rng_for)

# frozen oracle: scalar p' = -2p + 2, p(0)=5 -> p(t) = 4 e^{-2t} + 1;
# a 1e6-step RK4 reference gave 1.0732625555549384, analytic value below
P_A_MINUS1_Q2_P0_5_T2 = 1.0732625555549367


def scalar_lyapunov(a, q, p0, t):
    # p' = 2 a p + q
    if a == 0.0:
        return p0 + q * t
    return (p0 + q / (2 * a)) * np.exp(2 * a * t) - q / (2 * a)


# --------------------------------------------------------------------- flows

def test_cov_rhs_without_a_gain_term_is_the_lyapunov_rate_bit_for_bit(rng):
    # G = 0 subtracts 0.0, which changes no float: one matrix and a stack
    A = rng.normal(size=(4, 4))
    Q = random_spd(rng, 4)
    Ps = np.stack([random_spd(rng, 4, c) for c in (1e-3, 1.0, 1e3)])
    for P in (Ps[1], Ps):
        AP = A @ P
        np.testing.assert_array_equal(cov_rhs(P, A, Q),
                                      AP + AP.swapaxes(-1, -2) + Q)


def test_flow_cov_constant_rhs_exact():
    # dyadic step sizes keep the constant-RHS update exact in floating point
    out = flow_cov(np.eye(2), np.zeros((2, 2)), np.eye(2), 0.5, substeps=2)
    np.testing.assert_array_equal(out, 1.5 * np.eye(2))


def test_flow_cov_scalar_exponential():
    out = flow_cov(np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]]),
                   1.0, substeps=100)
    assert abs(out[0, 0] - np.e**2) / np.e**2 <= 1e-8


def test_flow_cov_scalar_frozen_reference():
    out = flow_cov(np.array([[5.0]]), np.array([[-1.0]]), np.array([[2.0]]),
                   2.0, substeps=100)
    rel = abs(out[0, 0] - P_A_MINUS1_Q2_P0_5_T2) / P_A_MINUS1_Q2_P0_5_T2
    assert rel <= 1e-8
    analytic = scalar_lyapunov(-1.0, 2.0, 5.0, 2.0)
    assert abs(analytic - P_A_MINUS1_Q2_P0_5_T2) <= 1e-13


def test_flow_info_scalar_harmonic():
    out = flow_info(np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0]]),
                    1.0, substeps=100)
    assert abs(out[0, 0] - 0.5) <= 1e-8


def test_flow_info_zero_q_inverse_consistency(rng):
    Y = random_spd(rng, 3)
    A = 0.5 * rng.normal(size=(3, 3))
    Z = np.zeros((3, 3))
    via_info = flow_info(Y, A, Z, 0.7, substeps=400)
    via_cov = np.linalg.inv(flow_cov(np.linalg.inv(Y), A, Z, 0.7,
                                     substeps=400))
    err = np.linalg.norm(via_info - via_cov) / np.linalg.norm(via_cov)
    assert err <= 1e-10


def test_flow_zero_dt_identity(rng):
    Y = random_spd(rng, 2)
    np.testing.assert_array_equal(flow_info(Y, np.eye(2), np.eye(2), 0.0), Y)
    np.testing.assert_array_equal(flow_cov(Y, np.eye(2), np.eye(2), 0.0), Y)


@given(st.integers(0, 10_000))
def test_flow_duality_property(seed):
    # moderate matrix norms keep 100 substeps inside the 1e-7 budget
    rng = rng_for(seed)
    n = int(rng.integers(1, 4))
    Y = random_spd(rng, n) / n
    A = rng.normal(size=(n, n)) * 0.3
    Q = random_spd(rng, n, scale=0.1)
    dt = float(rng.uniform(0.1, 0.8))
    lhs = np.linalg.inv(flow_info(Y, A, Q, dt, substeps=100))
    rhs = flow_cov(np.linalg.inv(Y), A, Q, dt, substeps=100)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-7


def test_rk4_order_of_convergence():
    # error against the analytic scalar solution should drop ~2^4 per halving
    a, q, p0, t = -1.0, 2.0, 5.0, 2.0
    exact = scalar_lyapunov(a, q, p0, t)
    A, Q, P = np.array([[a]]), np.array([[q]]), np.array([[p0]])
    errs = [abs(flow_cov(P, A, Q, t, substeps=s)[0, 0] - exact)
            for s in (8, 16, 32)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_flow_pd_loss_raises():
    # one huge RK4 step drives a scalar information state negative (-9.39e3)
    with pytest.raises(PositiveDefinitenessError, match="substeps"):
        flow_info(np.array([[1.0]]), np.array([[0.0]]), np.array([[5.0]]),
                  1.0, substeps=1)


# --------------------------------------------------------------- exact maps

def _expm_cases():
    rng = rng_for(1978)
    cases = {}
    for norm in (1e-12, 1e-6, 1e-2, 0.5, 1.0, 3.0, 10.0, 40.0):
        X = rng.normal(size=(5, 5))
        cases[f"random-{norm:g}"] = X * (norm / np.abs(X).sum(axis=0).max())
    jordan = np.diag(np.full(4, -0.7)) + np.diag(np.ones(3), 1)
    cases["jordan"] = jordan
    cases["jordan-scaled"] = 7.3 * jordan
    cases["zero"] = np.zeros((3, 3))
    cases["nilpotent"] = np.array([[0.0, 1e3], [0.0, 0.0]])
    return cases


@pytest.mark.parametrize("name", sorted(_expm_cases()))
def test_expm_matches_scipy(name):
    X = _expm_cases()[name]
    want = scipy_expm(X)
    got = expm(X[None])[0][0]
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_expm_batch_equals_single_matrices():
    # scaling is chosen per matrix, so batch neighbours do not interact
    X = np.stack([_expm_cases()[f"random-{v:g}"] for v in (1e-6, 0.5, 40.0)])
    single = np.stack([expm(x[None])[0][0] for x in X])
    np.testing.assert_array_equal(expm(X)[0], single)


def test_lyapunov_maps_scalar_closed_form():
    a, q = -1.0, 2.0
    d = np.array([0.0, 1e-3, 0.37, 2.0])
    phi, w = lyapunov_maps(np.array([[a]]), np.array([[q]]), d.max())(d)
    np.testing.assert_allclose(phi[:, 0, 0], np.exp(a * d), rtol=1e-14)
    # P(d) = Phi p0 Phi + W against the analytic solution, several p0
    for p0 in (0.2, 5.0):
        got = phi[:, 0, 0] ** 2 * p0 + w[:, 0, 0]
        np.testing.assert_allclose(got, scalar_lyapunov(a, q, p0, d),
                                   rtol=1e-14)


def _lyapunov_cases():
    """(A, Q, h) cases of the map family: "random" needs no squaring, the
    others square at least once."""
    rng = rng_for(2003)
    V = rng.normal(size=(4, 4))
    jordan = np.diag(np.full(4, -0.7)) + np.diag(np.ones(3), 1)
    A = rng.normal(size=(3, 3))
    return {
        "scalar": (np.array([[-1.0]]), np.array([[2.0]]), 2.0),
        "random": (rng.normal(size=(4, 4)), random_spd(rng, 4), 0.05),
        "defective": (V @ jordan @ np.linalg.inv(V), random_spd(rng, 4), 0.5),
        "noise-free": (A, np.zeros((3, 3)), 1.0),
        "stiff": (np.diag([-20.0, -1.0, 0.5]) + 0.3 * A, random_spd(rng, 3),
                  0.3),
    }


def _van_loan(A, Q, d):
    # phi and W of one duration from scipy's exponential of the block
    n = A.shape[0]
    F = scipy_expm(d * np.block([[-A, Q], [np.zeros((n, n)), A.T]]))
    phi = F[n:, n:].T
    W = phi @ F[:n, n:]
    return phi, 0.5 * (W + W.T)


@pytest.mark.parametrize("name", sorted(_lyapunov_cases()))
def test_lyapunov_map_family_matches_scipy(name):
    A, Q, h = _lyapunov_cases()[name]
    n = A.shape[0]
    if name == "stiff":
        block = np.block([[-A, Q], [np.zeros((n, n)), A.T]])
        assert h * np.abs(block).sum(axis=0).max() > 2.0
    d = np.array([0.0, 1e-12 * h, 0.37 * h, h])
    phi, w = lyapunov_maps(A, Q, h)(d)
    for i, di in enumerate(d):
        want_phi, want_w = _van_loan(A, Q, di)
        for got, want in ((phi[i], want_phi), (w[i], want_w)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _full_block_maps(A, Q, h, d):
    """The map family with Horner's rule on the whole (2n, 2n) block: the
    reference of lyapunov_maps' right-column rule.  Returns (phi, w, s)."""
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
    t = (np.asarray(d) / h)[:, None, None]
    F = np.repeat(coeffs[-1][None], len(d), axis=0)
    for c in coeffs[-2::-1]:
        F = c + t * F
    phi = F[:, n:, n:].transpose(0, 2, 1)
    w = _sym(phi @ F[:, :n, n:])
    for _ in range(s):
        w = _sym(phi @ w @ phi.transpose(0, 2, 1) + w)
        phi = phi @ phi
    return phi, w, s


@pytest.mark.parametrize("name", sorted(_lyapunov_cases()))
def test_lyapunov_maps_equal_the_full_block_rule(name):
    # Horner's rule is elementwise, so its right block column alone gives
    # the maps of the whole block bit for bit
    A, Q, h = _lyapunov_cases()[name]
    d = np.array([0.0, 1e-12 * h, 0.37 * h, h])
    want_phi, want_w, s = _full_block_maps(A, Q, h, d)
    if name == "stiff":
        assert s >= 2
    phi, w = lyapunov_maps(A, Q, h)(d)
    np.testing.assert_array_equal(phi, want_phi)
    np.testing.assert_array_equal(w, want_w)


@pytest.mark.parametrize("h", [0.1, 0.8, 3.0])
@pytest.mark.parametrize("stiffness", [20.0, 60.0, 200.0])
def test_lyapunov_maps_keep_w_under_a_fast_stable_mode(stiffness, h):
    # W = X - Phi X Phi^T with A X + X A^T + Q = 0.  The Van Loan block's
    # e^{-A d} grows like e^{stiffness d} and swamps W if the block itself
    # is squared.  The tolerance admits the conditioning of e^{A d},
    # about eps |A d|, which Phi shows as well.
    rng = rng_for(2024)
    A = np.diag([-stiffness, -1.0, 0.5]) + 0.3 * rng.normal(size=(3, 3))
    Q = random_spd(rng, 3)
    X = solve_continuous_lyapunov(A, -Q)
    d = np.array([0.37 * h, h])
    phi, w = lyapunov_maps(A, Q, h)(d)
    rtol = 1e-13 + np.finfo(float).eps * h * np.abs(A).sum(axis=0).max()
    for i, di in enumerate(d):
        want_phi = scipy_expm(A * di)
        want_w = X - want_phi @ X @ want_phi.T
        for got, want in ((phi[i], want_phi), (w[i], want_w)):
            assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def test_lyapunov_map_family_batch_equals_single_durations():
    # Horner's rule in t is elementwise, so batch neighbours do not interact
    A, Q, h = _lyapunov_cases()["stiff"]
    maps = lyapunov_maps(A, Q, h)
    d = np.array([0.37 * h, 0.0, h, 1e-12 * h, 0.5 * h])
    single = [maps(d[i:i + 1]) for i in range(len(d))]
    phi, w = maps(d[::-1])
    for i, (phi_i, w_i) in enumerate(single[::-1]):
        np.testing.assert_array_equal(phi[i], phi_i[0])
        np.testing.assert_array_equal(w[i], w_i[0])


@pytest.mark.parametrize("h,durations,message", [
    (0.37, [0.1, np.nextafter(0.37, 1.0)], "map durations must lie in"),
    (0.37, [0.1, -5e-324], "map durations must lie in"),
    (0.37, [0.1, np.nan], "map durations must lie in"),
    (0.0, [0.0], "map bound h must be positive"),
    (np.inf, [0.0], "map bound h must be positive"),
], ids=["above-h", "negative", "nan", "zero-h", "infinite-h"])
def test_lyapunov_map_family_rejects_durations_outside_its_bound(
        h, durations, message):
    A, Q, _ = _lyapunov_cases()["random"]
    with pytest.raises(ValidationError, match=message):
        lyapunov_maps(A, Q, h)(durations)


def test_lyapunov_map_family_rejects_an_overflowing_map():
    # e^{A d} of a fast unstable mode overflows: a typed error, never an inf
    # or nan map; a short duration of the same family stays finite
    maps = lyapunov_maps(1e5 * np.eye(2), np.eye(2), 0.01)
    with pytest.raises(PositiveDefinitenessError,
                       match="non-finite covariance map"), \
            np.errstate(all="ignore"):
        maps([0.01])
    phi, w = maps([1e-4])
    assert np.isfinite(phi).all() and np.isfinite(w).all()


def _adjoint_cases():
    rng = rng_for(1995)
    cases = {}
    for norm in (1e-3, 0.7, 5.0, 30.0):
        X = rng.normal(size=(6, 6))
        cases[f"random-{norm:g}"] = X * (norm / np.abs(X).sum(axis=0).max())
    jordan = np.diag(np.full(6, 0.4)) + np.diag(np.ones(5), 1)
    V = rng.normal(size=(6, 6))
    cases["defective"] = V @ jordan @ np.linalg.inv(V)
    cases["zero"] = np.zeros((6, 6))
    return cases


def _pullback_cases():
    # the adjoint's own cases, then every expm case: norms 1e-12 to 40
    # (s up to 6), a Jordan block and a nilpotent matrix
    cases = _adjoint_cases()
    cases.update((f"expm-{k}", v) for k, v in _expm_cases().items())
    return cases


@pytest.mark.parametrize("name", sorted(_pullback_cases()))
def test_expm_adjoint_is_the_frechet_adjoint(name):
    # expm's pullback: <L(X, V), B> = <V, pullback(B)>, with scipy's
    # Frechet derivative as a test-only oracle for L
    X = _pullback_cases()[name]
    d = X.shape[-1]
    rng = rng_for(len(name))
    B = rng.normal(size=(3, d, d))
    _, pullback = expm(np.repeat(X[None], 3, axis=0))
    got = pullback(B)
    for b, xbar in zip(B, got):
        for _ in range(3):
            V = rng.normal(size=(d, d))
            lhs = np.vdot(expm_frechet(X, V, compute_expm=False), b)
            rhs = np.vdot(V, xbar)
            scale = np.linalg.norm(expm_frechet(X, V, compute_expm=False)) \
                * np.linalg.norm(b)
            assert abs(lhs - rhs) <= 1e-13 * scale


def test_expm_adjoint_of_zero_adjoint_is_zero():
    X = _adjoint_cases()["random-5"][None]
    _, pullback = expm(X)
    np.testing.assert_array_equal(pullback(np.zeros_like(X)), 0.0)


def test_expm_pullback_batch_equals_single_matrices():
    # each matrix runs its own squarings back (s = 0, 0 and 6 here), so
    # batch neighbours do not interact, in the full Xbar or in a block
    X = np.stack([_expm_cases()[f"random-{v:g}"] for v in (1e-6, 0.5, 40.0)])
    B = rng_for(2009).normal(size=X.shape)
    _, pullback = expm(X)
    for block in ((slice(None), slice(None)), (slice(2, None), slice(None, 2))):
        single = np.stack([expm(x[None])[1](b[None], *block)[0]
                           for x, b in zip(X, B)])
        np.testing.assert_array_equal(pullback(B, *block), single)


def test_hamiltonian_pullback_is_the_lower_left_block():
    # U_k enters X_k = (h/m) [[A, Q], [U_k, -A^T]] in its lower-left block,
    # so the pullback to U_k is (h/m) times that block of expm's pullback
    rng = rng_for(1973)
    n, h = 3, 2.0
    A = rng.normal(size=(n, n))
    Q = random_spd(rng, n)
    U = np.stack([random_spd(rng, n, scale=s) for s in (0.1, 4.0, 40.0)])
    U_pullback, Phi, m = hamiltonian_maps(A, Q, U, h)
    assert m >= 2
    X = np.block([[A, Q], [np.zeros((n, n)), -A.T]]) * (h / m)
    X = np.repeat(X[None], len(U), axis=0)
    X[:, n:, :n] = h * U / m
    E, pullback = expm(X)
    np.testing.assert_array_equal(E, Phi)
    bar = rng.normal(size=Phi.shape)
    want = (h / m) * pullback(bar)[:, n:, :n]
    assert np.abs(U_pullback(bar) - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("a", [-0.8, 0.0, 0.3])
def test_hamiltonian_map_scalar_closed_form(a):
    # q = 0: y' = -2 a y + u, so y(t) = (y0 - u/2a) e^{-2at} + u/2a, and a
    # step of the map is (C + D y) / (E + F y)
    u = np.array([0.0, 0.5, 4.0])
    h = 0.37
    _, Phi, m = hamiltonian_maps(np.array([[a]]), np.zeros((1, 1)),
                                 u[:, None, None], h)
    assert m == 1
    for y0 in (0.2, 3.0):
        E, F, C, D = (Phi[:, i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
        y = y0
        for _ in range(3):
            y = (C + D * y) / (E + F * y)
        t = 3 * h
        if a == 0.0:
            want = y0 + u * t
        else:
            want = (y0 - u / (2 * a)) * np.exp(-2 * a * t) + u / (2 * a)
        np.testing.assert_allclose(y, want, rtol=1e-13)


# --------------------------------------------------------------------- jumps

def test_jump_cov_unit_example():
    out = jump_cov(np.eye(2), Sensor(H=np.array([[1.0, 0.0]]),
                                     R=np.array([[1.0]])))
    np.testing.assert_allclose(out, [[0.5, 0.0], [0.0, 1.0]], atol=1e-15)


def test_jump_cov_inversion_lemma(rng):
    for _ in range(50):
        n = int(rng.integers(1, 6))
        p = int(rng.integers(1, n + 1))
        P = random_spd(rng, n)
        s = Sensor(H=rng.normal(size=(p, n)), R=random_spd(rng, p))
        lhs = np.linalg.inv(jump_cov(P, s))
        rhs = np.linalg.inv(P) + s.S
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-8


def test_jump_cov_uninformative_limit(rng):
    P = random_spd(rng, 3)
    s = Sensor(H=rng.normal(size=(1, 3)), R=np.array([[1e12]]))
    out = jump_cov(P, s)
    assert np.linalg.norm(out - P) / np.linalg.norm(P) <= 1e-10


@pytest.mark.parametrize("p", [1, 3])
def test_jump_cov_is_the_per_sensor_decrement_bit_for_bit(p):
    # jump_cov takes stacked_gains' factors of the one sensor: the floats of
    # the per-sensor reference, whatever p
    rng = rng_for(440 + p)
    for scale in (1e-3, 1.0, 1e3):
        P = random_spd(rng, 4, scale)
        s = Sensor(H=rng.normal(size=(p, 4)), R=random_spd(rng, p))
        np.testing.assert_array_equal(
            jump_cov(P, s), _sym(P - covariance_decrement(P, s)))


def test_jump_info_unit_example():
    out = jump_info(np.eye(2), Sensor(H=np.array([[1.0, 0.0]]),
                                      R=np.array([[1.0]])))
    np.testing.assert_allclose(out, np.diag([2.0, 1.0]), atol=1e-15)


def test_jump_info_matches_jump_cov(rng):
    for _ in range(20):
        Y = random_spd(rng, 3)
        s = Sensor(H=rng.normal(size=(2, 3)), R=random_spd(rng, 2))
        lhs = jump_info(Y, s)
        rhs = np.linalg.inv(jump_cov(np.linalg.inv(Y), s))
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-8


def test_jump_info_zero_row_sensor(rng):
    Y = random_spd(rng, 2)
    s = Sensor(H=np.zeros((1, 2)), R=np.eye(1))
    np.testing.assert_array_equal(jump_info(Y, s), Y)


@given(st.integers(0, 10_000))
def test_jump_monotonicity(seed):
    rng = rng_for(seed)
    n = int(rng.integers(1, 5))
    P = random_spd(rng, n)
    s = Sensor(H=rng.normal(size=(1, n)), R=random_spd(rng, 1))
    assert np.linalg.eigvalsh(P - jump_cov(P, s)).min() >= -1e-10
    Y = np.linalg.inv(P)
    assert np.linalg.eigvalsh(jump_info(Y, s) - Y).min() >= -1e-10


def _ill_conditioned_sensor(rng, p, n):
    # R at condition number 1e8 (p > 1); a p = 1 noise spans the same range
    V, _ = np.linalg.qr(rng.normal(size=(p, p)))
    scale = float(rng.choice([1e-4, 1e4])) if p == 1 else 1.0
    R = scale * (V * np.logspace(0.0, -8.0, p)) @ V.T
    return Sensor(H=rng.normal(size=(p, n)), R=R)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_gains_match_per_sensor_decrements(seed):
    rng = rng_for(700 + seed)
    n = 4
    sensors = [_ill_conditioned_sensor(rng, p, n) for p in (1, 2, 3) * 3]
    rng.shuffle(sensors)
    inst = Instance(
        system=SystemModel(n=n, A=np.zeros((n, n)), Q=np.eye(n),
                           m0=np.zeros(n), P0=np.eye(n), T=1.0),
        sensors=tuple(sensors),
        polytope=ResourcePolytope(C=np.ones((1, 9)), b=np.ones(1)),
        weights=WeightSpec(W_stages=None, W_T=np.eye(n)))
    columns = rng.permutation(len(sensors))[:7]
    P = random_spd(rng, n)
    HP, sol = stacked_gains(P, inst.H[columns], inst.R[columns])
    g = _sym(HP.swapaxes(1, 2) @ sol)
    assert g.shape == (7, n, n) and sol.shape == (7, 3, n)
    for i, j in enumerate(columns):
        s = sensors[j]
        want = covariance_decrement(P, s)
        assert np.linalg.norm(g[i] - want) <= 1e-12 * np.linalg.norm(want)
        want = np.linalg.solve(s.H @ P @ s.H.T + s.R, s.H @ P)
        assert np.linalg.norm(sol[i, :s.p] - want) <= \
            1e-12 * np.linalg.norm(want)
        # a sensor padded to p = 3 solves for exact zeros in its padded rows
        assert np.all(sol[i, s.p:] == 0.0)


def _scalar_sensor_instance(rng, n, M):
    scales = rng.choice([1e-4, 1e4], size=M)
    sensors = tuple(Sensor(H=rng.normal(size=(1, n)),
                           R=random_spd(rng, 1, float(c))) for c in scales)
    return Instance(
        system=SystemModel(n=n, A=np.zeros((n, n)), Q=np.eye(n),
                           m0=np.zeros(n), P0=np.eye(n), T=1.0),
        sensors=sensors,
        polytope=ResourcePolytope(C=np.ones((1, M)), b=np.ones(1)),
        weights=WeightSpec(W_stages=None, W_T=np.eye(n)))


@pytest.mark.parametrize("form", ["one-P", "P-per-point", "P-per-run"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scalar_innovation_gains_match_lapack_to_an_ulp(seed, form):
    # stacked_gains solves p = 1 stacks with LAPACK, as every other p; only
    # RowGains' flat rows take a reciprocal.  Against the per-sensor solve,
    # sol may differ by an ulp, and each of the two products of the
    # symmetrized decrement by one ulp of its terms, as a stacked product
    # against a per-sensor one.  The forms are the stacked ones: one P
    # against the sensor stack, P[:, None] against it (StackGains'
    # layout), a run's P beside its arriving sensor (the filter walk)
    rng = rng_for(900 + seed)
    n, M = 4, 9
    inst = _scalar_sensor_instance(rng, n, M)
    Ps = np.stack([random_spd(rng, n, float(c)) for c in (1e-3, 1.0, 1e3)])
    if form == "one-P":
        P, js = Ps[0], np.arange(M)
        HP, sol = stacked_gains(P, inst.H, inst.R)
        pairs = [(P, j, HP[j], sol[j]) for j in js]
    elif form == "P-per-point":
        HP, sol = stacked_gains(Ps[:, None], inst.H, inst.R)
        assert sol.shape == (3, M, 1, n)
        pairs = [(P, j, HP[i, j], sol[i, j]) for i, P in enumerate(Ps)
                 for j in range(M)]
    else:
        js = rng.integers(0, M, size=3)
        HP, sol = stacked_gains(Ps, inst.H[js], inst.R[js])
        pairs = [(P, j, HP[i], sol[i]) for i, (P, j) in enumerate(zip(Ps, js))]
    for P, j, hp, sl in pairs:
        s = inst.sensors[j]
        want = np.linalg.solve(s.H @ P @ s.H.T + s.R, s.H @ P)
        assert np.all(np.abs(sl - want) <= np.spacing(np.abs(want)))
        g = _sym(hp.T @ sl)
        terms = _sym(np.abs(hp.T) @ np.abs(sl))
        assert np.all(np.abs(g - covariance_decrement(P, s))
                      <= 2.0 * np.spacing(terms))


@pytest.mark.parametrize("P00, R00", [
    (1.0, -1.0),            # S = 0: singular
    (np.inf, 1.0),          # S = inf, and inf / inf in HP / S
    (np.nan, 1.0),
])
def test_scalar_innovation_edge_cases_end_as_lapack_does(P00, R00):
    # the floats and the typed error of LAPACK's 1x1 solve, and no warning
    # (numpy's solve clears the flags LAPACK's arithmetic raises): in the
    # filter walk's stacked_gains, and on the flat p = 1 rows in the cov
    # rate, under the errstate the cov surrogate holds, and in the replay
    P = np.array([[P00, 1.0], [1.0, 1.0]])
    H, R = np.array([[[1.0, 0.0]]]), np.array([[[R00]]])
    try:
        want = lapack_gains(P, H, R)
    except np.linalg.LinAlgError:
        want = None
    gains = cov_gains(H, R)
    assert isinstance(gains, RowGains)
    A = Q = np.zeros((2, 2))
    lam = np.ones(1)

    def rate():
        with np.errstate(over="ignore", invalid="ignore"):
            out = cov_rhs(P, A, Q, gains.gain_term(P, lam))
            HP, sol, _ = gains.factors(P, lam)
            return HP, sol, out

    calls = (lambda: stacked_gains(P, H, R), rate,
             lambda: optimize._cov_stage_points(A, Q, gains, lam, P[None],
                                                0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is None:
            for call in calls:
                with pytest.raises(np.linalg.LinAlgError, match="Singular"):
                    call()
            return
        got, flat, points = (call() for call in calls)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert not np.isfinite(got[1]).all()
    for g, w in zip(flat, want):
        np.testing.assert_array_equal(g, w[:, 0])
    assert not np.isfinite(flat[2]).all()
    assert not np.isfinite(points[0][0]).all()


@pytest.mark.parametrize("form", ["P-per-point", "P-per-run"])
def test_mixed_p_gains_keep_padded_rows_exact_zeros(form):
    # p_max = 2: the p = 1 sensors' padded rows solve for exact zeros in
    # the stacked forms as well
    inst = mixed_instance(seed=91)
    rng = rng_for(92)
    Ps = np.stack([random_spd(rng, inst.n) for _ in range(4)])
    if form == "P-per-point":
        js = np.arange(inst.M)
        HP, sol = stacked_gains(Ps[:, None], inst.H, inst.R)
    else:
        js = rng.integers(0, inst.M, size=4)
        HP, sol = stacked_gains(Ps, inst.H[js], inst.R[js])
    scalar = np.array([inst.sensors[j].p == 1 for j in js])
    assert scalar.any()
    assert np.all(HP[..., scalar, 1:, :] == 0.0)
    assert np.all(sol[..., scalar, 1:, :] == 0.0)


# ---------------------------------------------------------------- trajectory

def _const_traj(value, times, coords=COV):
    vals = np.repeat(value[None], len(times), axis=0)
    return Trajectory(coordinates=coords, times=np.asarray(times, float),
                      values=vals)


def test_trajectory_requires_increasing_grid():
    with pytest.raises(ValueError):
        _const_traj(np.eye(2), [0.0, 0.5, 0.5])


def test_trajectory_requires_pd_nodes():
    vals = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(ValueError, match="positive definiteness"):
        Trajectory(coordinates=COV, times=np.array([0.0, 1.0]), values=vals)
    # a failing middle node, and a later one: the first is named
    bad = np.diag([1.0, -1.0])
    vals = np.stack([np.eye(2), np.eye(2), bad, np.eye(2), bad])
    with pytest.raises(ValueError, match="at node t=0.5: min eigenvalue"):
        Trajectory(coordinates=COV, times=np.linspace(0.0, 1.0, 5),
                   values=vals)


def test_pd_checks_reject_non_finite_matrices():
    # numpy's Cholesky passes NaN through; every path must still refuse it
    with pytest.raises(PositiveDefinitenessError, match="non-finite"), \
            np.errstate(all="ignore"):
        flow_cov(np.eye(2), 1000.0 * np.eye(2), np.eye(2), 3.0,
                 substeps=1000)
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory(coordinates=COV, times=np.array([0.0, 1.0]),
                   values=np.stack([np.eye(2), np.full((2, 2), np.nan)]))
    stack = np.stack([np.eye(2), np.full((2, 2), np.nan), np.eye(2)])
    with pytest.raises(PositiveDefinitenessError, match="non-finite entries at 1"):
        require_pd(stack, lambda i: f"at {i}")
    with pytest.raises(PositiveDefinitenessError, match="at index 1:"):
        require_pd(np.stack([np.eye(2), -np.eye(2)]))
    with pytest.raises(PositiveDefinitenessError, match="non-finite"):
        require_pd(np.array([[1.0, np.inf], [np.inf, 1.0]]))


def test_require_pd_reports_an_infinite_matrix_without_warnings():
    # an infinite diagonal gives an infinite floor, inf * 0 in the shift:
    # the check is the only report
    with pytest.raises(PositiveDefinitenessError,
                       match="non-finite entries at index 1"):
        require_pd(np.stack([np.eye(2), np.diag([np.inf, 1.0])]))
    with pytest.raises(PositiveDefinitenessError, match="non-finite"):
        require_pd(np.full((2, 2), np.inf))


def test_only_integrators_advise_more_substeps():
    with pytest.raises(PositiveDefinitenessError, match="increase substeps"):
        flow_info(np.array([[1.0]]), np.array([[0.0]]), np.array([[5.0]]),
                  1.0, substeps=1)
    with pytest.raises(ValueError) as exc:
        Trajectory(coordinates=COV, times=np.array([0.0, 1.0]),
                   values=np.stack([np.eye(2), np.diag([1.0, -1.0])]))
    assert "positive definiteness" in str(exc.value)
    assert "substeps" not in str(exc.value)


def test_trajectory_requires_symmetry():
    vals = np.stack([np.eye(2), np.array([[1.0, 0.3], [0.0, 1.0]])])
    with pytest.raises(ValueError):
        Trajectory(coordinates=COV, times=np.array([0.0, 1.0]), values=vals)


def test_pathwise_cost_constant():
    times = np.linspace(0.0, 1.0, 5)
    traj = _const_traj(np.eye(2), times)
    weights = WeightSpec(W_stages=np.eye(2)[None], W_T=np.eye(2))
    assert pathwise_cost(traj, weights) == pytest.approx(4.0, abs=1e-12)


def test_pathwise_cost_terminal_only(rng):
    times = np.linspace(0.0, 1.0, 4)
    P = random_spd(rng, 3)
    traj = _const_traj(P, times)
    weights = WeightSpec(W_stages=None, W_T=np.eye(3))
    assert pathwise_cost(traj, weights) == pytest.approx(np.trace(P))


def test_pathwise_cost_affine_scalar():
    times = np.linspace(0.0, 1.0, 6)
    vals = (1.0 + times)[:, None, None]
    traj = Trajectory(coordinates=COV, times=times, values=vals)
    weights = WeightSpec(W_stages=np.ones((1, 1, 1)), W_T=np.zeros((1, 1)))
    assert pathwise_cost(traj, weights) == pytest.approx(1.5, abs=1e-12)


def test_pathwise_cost_requires_covariance_and_full_span():
    # an information path costs its inverse: Y = 2 I has P(T) = I / 2
    times = np.linspace(0.0, 1.0, 4)
    traj = _const_traj(2.0 * np.eye(2), times, coords=INFO)
    weights = WeightSpec(W_stages=None, W_T=np.eye(2))
    assert pathwise_cost(traj, weights) == 1.0
    cov = _const_traj(np.eye(2), times)
    with pytest.raises(ValueError):
        pathwise_cost(cov, weights, horizon=2.0)
    with pytest.raises(ValueError):
        pathwise_cost(traj, weights, horizon=2.0)
    with pytest.raises(ValueError):
        pathwise_cost(cov, WeightSpec(W_stages=None, W_T=np.eye(3)))


def test_quadrature_weights_sum_matches_trapezoid():
    # effective node weights must reproduce the trapezoid rule exactly
    times = np.linspace(0.0, 2.0, 9)
    W = np.stack([1.0 * np.eye(1), 3.0 * np.eye(1)])   # two stages on [0,2]
    weights = WeightSpec(W_stages=W, W_T=np.zeros((1, 1)))
    w_hat = node_weights(times, weights)
    vals = (1.0 + times)[:, None, None]
    traj = Trajectory(coordinates=COV, times=times, values=vals)
    direct = pathwise_cost(traj, weights)
    via_nodes = sum(float(w_hat[i, 0, 0] * vals[i, 0, 0])
                    for i in range(len(times)))
    assert via_nodes == pytest.approx(direct, rel=1e-14)


def test_quadrature_weights_stage_of_midpoint():
    # a node exactly on the stage boundary splits its weight between stages
    times = np.array([0.0, 0.5, 1.0])
    W = np.stack([np.eye(1), 3.0 * np.eye(1)])
    weights = WeightSpec(W_stages=W, W_T=np.zeros((1, 1)))
    w_hat = node_weights(times, weights)
    # left subinterval weight 0.25 at stage 1, right 0.25 at stage 3
    assert w_hat[0, 0, 0] == pytest.approx(0.25 * 1.0)
    assert w_hat[1, 0, 0] == pytest.approx(0.25 * 1.0 + 0.25 * 3.0)
    assert w_hat[2, 0, 0] == pytest.approx(0.25 * 3.0)


def _loop_node_weights(times, weights):
    # the per-node loop node_weights replaced: each subinterval adds half its
    # length times its midpoint's stage matrix to both ends, then W_T is
    # added to the last node
    n = weights.n
    out = np.zeros((len(times), n, n))
    stages = weights.W_stages
    if stages is not None:
        delta = float(times[-1] - times[0]) / stages.shape[0]
        for i in range(len(times) - 1):
            dt = times[i + 1] - times[i]
            mid = 0.5 * (times[i] + times[i + 1]) - times[0]
            k = min(int(mid / delta), stages.shape[0] - 1)
            out[i] += 0.5 * dt * stages[k]
            out[i + 1] += 0.5 * dt * stages[k]
    out[-1] = weights.W_T + out[-1]
    return out


@pytest.mark.parametrize("grid", ["boundaries", "off_boundaries", "terminal"])
def test_node_weights_match_the_per_node_loop(rng, grid):
    # bit for bit, on a grid through the stage boundaries, on one that
    # misses them, and with a terminal weight alone
    n, N, T = 3, 5, 1.7
    stages = np.stack([random_spd(rng, n) for _ in range(N)])
    W_T = random_spd(rng, n)
    if grid == "off_boundaries":
        times = np.sort(np.concatenate(
            [[0.0, T], rng.uniform(0.0, T, 23)]))
    else:
        times = np.linspace(0.0, T, 4 * N + 1)
    weights = WeightSpec(W_stages=None if grid == "terminal" else stages,
                         W_T=W_T)
    table = node_weights(times, weights)
    assert table.shape == (len(times), n, n)
    np.testing.assert_array_equal(table, _loop_node_weights(times, weights))
    if grid == "terminal":
        assert not table[:-1].any()
        np.testing.assert_array_equal(table[-1], W_T)


@pytest.mark.parametrize("running", [False, True], ids=["terminal", "running"])
def test_pathwise_cost_of_information_path_is_cost_of_its_inverse(rng,
                                                                  running):
    n = 3
    times = np.linspace(0.0, 2.0, 13)
    values = np.stack([random_spd(rng, n) for _ in times])
    info = Trajectory(coordinates=INFO, times=times, values=values)
    stages = np.stack([random_spd(rng, n) for _ in range(4)])
    weights = WeightSpec(W_stages=stages if running else None,
                         W_T=random_spd(rng, n))
    want = pathwise_cost(invert_trajectory(info), weights, 2.0)
    assert pathwise_cost(info, weights, 2.0) == pytest.approx(want,
                                                              rel=1e-14)


def test_invert_trajectory_diag():
    times = np.array([0.0, 1.0])
    vals = np.stack([np.diag([2.0, 4.0]), np.diag([1.0, 0.5])])
    traj = Trajectory(coordinates=COV, times=times, values=vals)
    inv = invert_trajectory(traj)
    assert inv.coordinates == INFO
    np.testing.assert_allclose(inv.values[0], np.diag([0.5, 0.25]))
    np.testing.assert_allclose(inv.values[1], np.diag([1.0, 2.0]))


def test_invert_trajectory_involution(rng):
    times = np.linspace(0.0, 1.0, 5)
    vals = np.stack([random_spd(rng, 3) for _ in times])
    traj = Trajectory(coordinates=COV, times=times, values=vals)
    back = invert_trajectory(invert_trajectory(traj))
    assert back.coordinates == COV
    err = np.abs(back.values - vals).max() / np.abs(vals).max()
    assert err <= 1e-12


def test_invert_trajectory_residual(rng):
    times = np.linspace(0.0, 1.0, 4)
    vals = np.stack([random_spd(rng, 4) for _ in times])
    traj = Trajectory(coordinates=COV, times=times, values=vals)
    inv = invert_trajectory(traj)
    for X, Xi in zip(vals, inv.values):
        assert np.abs(X @ Xi - np.eye(4)).max() <= 1e-10


