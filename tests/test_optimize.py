import itertools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize

from infosched.model import (
    Instance,
    InstanceSpec,
    ResourcePolytope,
    Schedule,
    Sensor,
    SystemModel,
    ValidationError,
    WeightSpec,
    _sym,
    random_instance,
)
from infosched import optimize, surrogate
from infosched.riccati import (
    COV,
    PositiveDefinitenessError,
    Trajectory,
    _rk4_reverse,
    _rk4_stages,
    _rk4_step,
    RowGains,
    StackGains,
    cov_gains,
    cov_rhs,
    node_weights,
    pathwise_cost,
)
from infosched.optimize import (
    ProjectionError,
    ShootingProblem,
    SolveOptions,
    centered_rates,
    gradient_check,
    objective,
    objective_and_gradient,
    project_schedule,
    solve,
)

from conftest import (covariance_decrement, make_scalar_instance,
                      mixed_instance, random_spd, rng_for)


def kkt_projection_oracle(v, C, b, tol=1e-9):
    """Exact projection onto {x >= 0, C x <= b} by active-set enumeration.

    For every choice of active rows A and zero coordinates Z, solve the KKT
    stationarity system and keep the candidate whose multipliers and primal
    residuals all check out.  Exponential in the problem size, which is the
    point: it shares no code with the implementation under test.
    """
    v = np.asarray(v, dtype=float)
    K, M = C.shape
    best = None
    for n_act in range(K + 1):
        for act in itertools.combinations(range(K), n_act):
            for n_zero in range(M + 1):
                for zero in itertools.combinations(range(M), n_zero):
                    free = [j for j in range(M) if j not in zero]
                    A = list(act)
                    mu = np.zeros(K)
                    if A and free:
                        CA = C[np.ix_(A, free)]
                        try:
                            mu[A] = np.linalg.solve(
                                CA @ CA.T, CA @ v[free] - b[A]
                            )
                        except np.linalg.LinAlgError:
                            continue
                    elif A:
                        # every coordinate pinned at zero: rows must allow it
                        if np.any(b[A] < -tol):
                            continue
                        mu[A] = 0.0
                    x = np.zeros(M)
                    if free:
                        x[free] = v[free] - C[:, free].T @ mu
                    nu_zero = (C.T @ mu)[list(zero)] - v[list(zero)]
                    ok = (
                        np.all(mu >= -tol)
                        and np.all(nu_zero >= -tol)
                        and np.all(x >= -tol)
                        and np.all(C @ x <= b + tol)
                        and np.all(np.abs(C[A] @ x - b[A]) <= tol)
                    )
                    if not ok:
                        continue
                    d = float(np.linalg.norm(x - v))
                    if best is None or d < best[0] - tol:
                        best = (d, x)
    assert best is not None, "oracle found no KKT point"
    return best[1]


def simplex_projection_oracle(v, budget):
    """The one-row projection onto {x >= 0, sum x <= budget} that the row
    kernel replaced, kept as its bit-for-bit reference at c = 1."""
    w = np.maximum(v, 0.0)
    if w.sum() <= budget:
        return w
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - budget
    idx = np.arange(1, v.size + 1)
    active = idx[u - css / idx > 0]
    rho = active[-1] if active.size else 1
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def slsqp_projection(v, c, beta):
    """scipy's SLSQP on min |x - v|^2 / 2 over {x >= 0, c.x <= beta}."""
    res = minimize(
        lambda x: 0.5 * float(np.sum((x - v) ** 2)), np.zeros(v.size),
        jac=lambda x: x - v, method="SLSQP", bounds=[(0.0, None)] * v.size,
        constraints=[{"type": "ineq", "fun": lambda x: beta - c @ x,
                      "jac": lambda x: -c}],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    return res.x


def tied_table(rng, N, M):
    """Rows on a 0.5 grid (many ties), every other one with a tied maximum
    off the grid, scaled row by row by powers of two from 1/64 to 2."""
    V = np.round(2.0 * rng.normal(scale=3.0, size=(N, M))) / 2.0
    top = V[::2].max(axis=1, keepdims=True)
    V[::2, : (M + 1) // 2] = top + rng.uniform(size=top.shape)
    return V * 2.0 ** rng.integers(-6, 2, size=(N, 1))


# ---------------------------------------------------------------------------
# projections


def project_stage(v, polytope):
    """One stage's projection: the one-row table through project_schedule."""
    return project_schedule(np.asarray(v, dtype=float)[None], polytope)[0]


def test_budget_projection_splits_excess_evenly():
    poly = ResourcePolytope(C=np.ones((1, 3)), b=np.array([5.0]))
    out = project_stage(np.array([4.0, 4.0, 0.0]), poly)
    assert np.allclose(out, [2.5, 2.5, 0.0], atol=1e-12)


def test_projection_keeps_feasible_point():
    poly = ResourcePolytope(C=np.ones((1, 3)), b=np.array([5.0]))
    v = np.array([1.0, 1.5, 2.0])
    assert np.array_equal(project_stage(v, poly), v)


def test_box_projection_clips_coordinatewise():
    poly = ResourcePolytope(C=np.eye(2), b=np.array([5.0, 5.0]))
    out = project_stage(np.array([-1.0, 6.0]), poly)
    assert np.allclose(out, [0.0, 5.0], atol=1e-8)


def test_budget_fast_path_matches_kkt_oracle():
    C = np.full((1, 3), 2.0)
    b = np.array([3.0])
    poly = ResourcePolytope(C=C, b=b)
    rng = rng_for(11)
    for _ in range(40):
        v = rng.uniform(-2.0, 3.0, size=3)
        assert np.allclose(
            project_stage(v, poly), kkt_projection_oracle(v, C, b), atol=1e-9
        )


def test_dykstra_matches_kkt_oracle_on_coupled_rows():
    C = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0])
    poly = ResourcePolytope(C=C, b=b)
    rng = rng_for(12)
    probes = [rng.uniform(-2.0, 3.0, size=3) for _ in range(30)]
    probes += [
        np.array([2.0, 2.0, 2.0]),
        np.array([0.0, 5.0, 0.0]),
        np.array([-1.0, -1.0, -1.0]),
        np.array([1.0, 0.0, 1.0]),
    ]
    for v in probes:
        assert np.allclose(
            project_stage(v, poly), kkt_projection_oracle(v, C, b), atol=1e-7
        )


def test_unequal_single_row_is_projected_exactly():
    # mixed coefficients take the row kernel too: exact, no iteration
    C = np.array([[1.0, 2.0]])
    b = np.array([2.0])
    poly = ResourcePolytope(C=C, b=b)
    rng = rng_for(13)
    for _ in range(25):
        v = rng.uniform(-2.0, 3.0, size=2)
        assert np.allclose(
            project_stage(v, poly), kkt_projection_oracle(v, C, b), atol=1e-12,
            rtol=0.0
        )


@given(
    st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
    st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
)
def test_budget_projection_idempotent_and_nonexpansive(u, v):
    poly = ResourcePolytope(C=np.ones((1, 3)), b=np.array([4.0]))
    u, v = np.asarray(u), np.asarray(v)
    pu, pv = project_stage(u, poly), project_stage(v, poly)
    assert np.allclose(project_stage(pu, poly), pu, atol=1e-12)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9


def test_dykstra_projection_idempotent():
    poly = ResourcePolytope(
        C=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), b=np.array([1.0, 1.0])
    )
    rng = rng_for(14)
    for _ in range(10):
        p = project_stage(rng.uniform(-2.0, 3.0, size=3), poly)
        assert np.allclose(project_stage(p, poly), p, atol=1e-8)


def test_projection_error_at_iteration_cap(monkeypatch):
    poly = ResourcePolytope(
        C=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), b=np.array([1.0, 1.0])
    )
    monkeypatch.setattr(optimize, "DYKSTRA_MAX_ITERS", 1)
    with pytest.raises(ProjectionError, match="iterations"):
        project_stage(np.array([2.0, 2.0, 2.0]), poly)


def test_project_schedule_is_stagewise():
    poly = ResourcePolytope(C=np.ones((1, 2)), b=np.array([1.0]))
    rates = np.array([[3.0, 1.0], [0.2, 0.3]])
    out = project_schedule(rates, poly)
    assert np.allclose(out[0], project_stage(rates[0], poly))
    assert np.array_equal(out[1], rates[1])
    # coupled rows stay on Dykstra, one stage at a time
    C = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0])
    poly = ResourcePolytope(C=C, b=b)
    rates = np.array([[2.0, 2.0, 2.0], [0.2, 0.3, 0.4], [0.0, 5.0, -1.0]])
    out = project_schedule(rates, poly)
    for k in range(len(rates)):
        assert np.array_equal(out[k], project_stage(rates[k], poly))
        assert np.allclose(out[k], kkt_projection_oracle(rates[k], C, b),
                           atol=1e-7)
    assert np.array_equal(out[1], rates[1])


def test_row_kernel_matches_the_simplex_projection_bit_for_bit():
    # an equal-coefficient row scales to c = 1 exactly, and then every float
    # operation is the one-row routine's: ties, tiny budgets, one column,
    # and rows inside and outside the budget in one table
    rng = rng_for(15)
    tables = [tied_table(rng, N, M) for N, M in [(30, 30), (7, 1), (1, 9),
                                                   (12, 39), (5, 130)]]
    tables += [rng.normal(scale=s, size=(20, 17)) for s in (1e-3, 1.0, 1e3)]
    for V in tables:
        for budget in (1e-300, 1e-12, 0.5, 5.0, 100.0):
            for coef in (1.0, 2.5, 0.3):
                poly = ResourcePolytope(C=np.full((1, V.shape[1]), coef),
                                        b=np.array([budget * coef]))
                beta = poly.b[0] / poly.C[0, 0]
                want = np.array([simplex_projection_oracle(v, beta)
                                 for v in V])
                assert np.array_equal(project_schedule(V, poly), want)
    # one table, both cases
    V = tables[0]
    inside = np.maximum(V, 0.0).sum(axis=1) <= 5.0
    assert inside.any() and not inside.all()
    # permutations of one row meet the smallest of their sums as the budget
    # up to the order of summation, so the inside test must add in the
    # one-row routine's order
    w = rng.uniform(0.1, 1.0, size=37)
    V = np.array([rng.permutation(w) for _ in range(200)])
    budget = V.sum(axis=1).min()
    poly = ResourcePolytope(C=np.ones((1, 37)), b=np.array([budget]))
    want = np.array([simplex_projection_oracle(v, budget) for v in V])
    assert np.array_equal(project_schedule(V, poly), want)
    moved = [not np.array_equal(x, v) for x, v in zip(want, V)]
    assert any(moved) and not all(moved)


def test_zero_budget_projects_every_rate_to_exact_zero():
    rng = rng_for(16)
    V = tied_table(rng, 20, 12)
    poly = ResourcePolytope(C=np.ones((1, 12)), b=np.array([0.0]))
    assert np.array_equal(project_schedule(V, poly), np.zeros_like(V))
    # the sorted cut leaves roundoff at a tied maximum: the kernel must not
    assert any(simplex_projection_oracle(v, 0.0).any() for v in V)
    for _ in range(20):
        c = rng.uniform(0.1, 5.0, size=(1, 12))
        out = project_schedule(rng.normal(scale=10.0, size=(15, 12)),
                               ResourcePolytope(C=c, b=np.array([0.0])))
        assert np.all(out == 0.0)


def test_weighted_row_matches_kkt_oracle_and_slsqp():
    rng = rng_for(17)
    for _ in range(40):
        M = int(rng.integers(1, 6))
        C = rng.uniform(0.2, 3.0, size=(1, M))
        b = np.array([rng.uniform(0.1, 4.0)])
        V = rng.uniform(-2.0, 4.0, size=(6, M))
        out = project_schedule(V, ResourcePolytope(C=C, b=b))
        for v, x in zip(V, out):
            assert np.allclose(x, kkt_projection_oracle(v, C, b), atol=1e-10,
                               rtol=0.0)
            assert np.allclose(x, slsqp_projection(v, C[0], b[0]),
                               atol=1e-10, rtol=0.0)


@st.composite
def weighted_tables(draw):
    N = draw(st.integers(1, 8))
    M = draw(st.integers(1, 8))
    entries = st.floats(-50.0, 50.0, allow_nan=False)
    U = draw(hnp.arrays(float, (N, M), elements=entries))
    V = draw(hnp.arrays(float, (N, M), elements=entries))
    c = draw(hnp.arrays(float, (1, M), elements=st.floats(0.01, 10.0)))
    return U, V, ResourcePolytope(C=c, b=np.array([draw(st.floats(0.0, 20.0))]))


@given(weighted_tables())
def test_row_kernel_idempotent_nonexpansive_nonnegative(case):
    U, V, poly = case
    PU, PV = project_schedule(U, poly), project_schedule(V, poly)
    assert np.all(PU >= 0.0) and np.all(PV >= 0.0)
    assert np.allclose(project_schedule(PU, poly), PU, rtol=0.0, atol=1e-12)
    gap = np.linalg.norm(PU - PV, axis=1)
    assert np.all(gap <= np.linalg.norm(U - V, axis=1) + 1e-9)


@pytest.mark.parametrize("C, b", [
    (np.ones((1, 3)), [2.0]),
    (np.array([[0.5, 2.0, 1.0]]), [2.0]),
    (np.eye(3), [1.0, 2.0, 0.5]),
    (np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), [1.0, 1.0]),
], ids=["equal", "weighted", "box", "coupled"])
def test_project_stage_is_the_one_row_schedule(C, b):
    poly = ResourcePolytope(C=C, b=np.asarray(b))
    rng = rng_for(18)
    for _ in range(10):
        v = rng.uniform(-2.0, 3.0, size=3)
        assert np.array_equal(project_stage(v, poly),
                              project_schedule(v[None], poly)[0])


def test_centered_rates_values():
    budget = ResourcePolytope(C=np.ones((1, 4)), b=np.array([5.0]))
    assert np.array_equal(centered_rates(budget, 3), np.full((3, 4), 0.625))
    box = ResourcePolytope(C=np.eye(2), b=np.array([5.0, 5.0]))
    assert np.array_equal(centered_rates(box, 2), np.full((2, 2), 2.5))
    weighted = ResourcePolytope(C=np.array([[2.0, 2.0]]), b=np.array([2.0]))
    assert np.array_equal(centered_rates(weighted, 1), np.full((1, 2), 0.25))


# ---------------------------------------------------------------------------
# objective and adjoint gradient


def test_scalar_closed_form_objective_and_gradient():
    # static state, unit sensor: y(T) = 1 + sum_k lam_k T/N, J = w_T / y(T),
    # dJ/dlam_k = -(T/N) / y(T)^2; at lam = (1, 1): J = 1/2, G = -1/8
    inst = make_scalar_instance()
    problem = ShootingProblem(instance=inst, N=2, kind="info", substeps=4)
    rates = np.ones((2, 1))
    J, G = objective_and_gradient(problem, rates)
    assert abs(J - 0.5) <= 1e-13
    assert np.all(np.abs(G + 0.125) <= 1e-13)


@pytest.mark.parametrize("a", [-0.6, 0.0, 0.45])
def test_scalar_exact_stage_maps_closed_form(a):
    # q = 0, unit sensor: y' = -2 a y + lam_k on stage k, so stage k maps
    # y -> (y - lam_k/2a) e + lam_k/2a with e = e^{-2a delta}.  J = 1/y(T),
    # and dJ/dlam_k = -y(T)^{-2} (1 - e)/2a e^{N-1-k}, at delta for a = 0
    N, T = 4, 2.0
    inst = make_scalar_instance(a=a, q=0.0, p0=0.8, T=T)
    rates = np.array([[0.3], [2.0], [0.0], [1.1]])
    problem = ShootingProblem(instance=inst, N=N, kind="info", substeps=3)
    J, G = objective_and_gradient(problem, rates)
    delta = T / N
    e = math.exp(-2.0 * a * delta)
    gain = delta if a == 0.0 else (1.0 - e) / (2.0 * a)
    y = 1.0 / 0.8
    for lam in rates[:, 0]:
        y = e * y + gain * lam
    assert abs(J - 1.0 / y) <= 1e-14 * (1.0 / y)
    want = [-gain * e ** (N - 1 - k) / y**2 for k in range(N)]
    np.testing.assert_allclose(G[:, 0], want, rtol=1e-12)


def _stiff_instance(seed, defective, q_zero, r_scale):
    # n=3, M=3: a defective A under a random similarity, Q=0 or not, and the
    # sensor noise scaled by r_scale (1e-2 and 1e-4 make the inputs U_k
    # stiff: the exact map then splits each step, 8 and 64 ways)
    inst = random_instance(InstanceSpec(n=3, M=3, p=1, seed=seed, T=2.0,
                                        budget=4.0))
    sys = inst.system
    A = sys.A
    if defective:
        V = rng_for(seed).normal(size=(3, 3)) + 3.0 * np.eye(3)
        J = np.array([[-0.3, 1.0, 0.0], [0.0, -0.3, 1.0], [0.0, 0.0, -0.3]])
        A = V @ J @ np.linalg.inv(V)
    Q = np.zeros((3, 3)) if q_zero else sys.Q
    sensors = tuple(Sensor(H=s.H, R=r_scale * s.R) for s in inst.sensors)
    return replace(inst, system=replace(sys, A=A, Q=Q), sensors=sensors)


@given(
    seed=st.integers(0, 10_000),
    defective=st.booleans(),
    q_zero=st.booleans(),
    r_scale=st.sampled_from([1.0, 1e-2, 1e-4]),
)
def test_exact_forward_matches_fine_rk4(seed, defective, q_zero, r_scale):
    inst = _stiff_instance(seed, defective, q_zero, r_scale)
    N = 5
    rates = centered_rates(inst.polytope, N) * \
        rng_for(seed).uniform(0.0, 2.0, size=(N, inst.M))
    sched = Schedule(N=N, T=inst.T, rates=rates)
    exact, _ = optimize._info_forward(inst, sched, 10)
    fine = surrogate.integrate_info_surrogate(inst, sched, substeps=400)
    assert exact.values.shape[0] == N + 1
    ref = fine.values[::400]
    err = np.linalg.norm(exact.values - ref, axis=(1, 2)) \
        / np.linalg.norm(ref, axis=(1, 2))
    assert err.max() <= 1e-9


@pytest.mark.parametrize("weights", ["terminal", "running"])
def test_split_step_gradient_matches_central_differences(weights):
    # stiff inputs split every step into several map steps; the adjoint
    # walks all of them and enters a running weight only at the nodes.  The
    # early stages are mostly forgotten (entries span six decades), so the
    # gap is measured against the largest entry
    inst = _stiff_instance(5, True, False, 1e-4)
    if weights == "running":
        inst = replace(inst, weights=WeightSpec(
            W_stages=_stage_weights(3, 3, 5), W_T=inst.weights.W_T))
    problem = ShootingProblem(instance=inst, N=5, kind="info", substeps=2)
    rates = centered_rates(inst.polytope, 5)
    _, (_, _, path) = optimize._info_forward(inst, problem.schedule(rates), 2)
    assert len(path) - 1 > 5 * (1 if weights == "terminal" else 2)
    _, G = objective_and_gradient(problem, rates)
    fd = np.empty_like(G)
    for k, j in itertools.product(range(5), range(3)):
        step = np.zeros_like(rates)
        step[k, j] = 1e-4
        fd[k, j] = (objective(problem, rates + step)
                    - objective(problem, rates - step)) / 2e-4
    assert np.abs(fd - G).max() <= 1e-6 * np.abs(G).max()


def test_running_weights_record_every_substep_node():
    inst = _stiff_instance(3, True, False, 1.0)
    inst = replace(inst, weights=WeightSpec(
        W_stages=_stage_weights(3, 2, 3), W_T=inst.weights.W_T))
    sched = Schedule(N=4, T=inst.T, rates=centered_rates(inst.polytope, 4))
    traj, _ = optimize._info_forward(inst, sched, 6)
    np.testing.assert_array_equal(traj.times, np.linspace(0.0, inst.T, 25))
    fine = surrogate.integrate_info_surrogate(inst, sched, substeps=600)
    np.testing.assert_allclose(traj.values, fine.values[::100], rtol=1e-9)


# ---------------------------------------------------------------------------
# the batched info adjoint against its step-by-step form


def reference_info_gradient(problem, traj, maps):
    """The info adjoint step by step: every product of a map step inside
    the sweep, each stage map's adjoint accumulated block by block as the
    sweep meets its steps, then the same pullback of the exponential."""
    inst = problem.instance
    U_pullback, Phi, path = maps
    n, N = inst.n, problem.N
    steps = (len(path) - 1) // N
    m = (len(path) - 1) // (len(traj.times) - 1)
    table = node_weights(traj.times, inst.weights)
    running = inst.weights.W_stages is not None
    P = _sym(np.linalg.inv(path[-1]))
    Lam = -_sym(P @ table[-1] @ P)
    if running:
        P = _sym(np.linalg.inv(traj.values))
        node = -_sym(P @ table @ P)
    bar = np.zeros_like(Phi)
    for k in range(N - 1, -1, -1):
        E, F, D = Phi[k][:n, :n], Phi[k][:n, n:], Phi[k][n:, n:]
        Eb, Fb, Cb, Db = (bar[k][:n, :n], bar[k][:n, n:], bar[k][n:, :n],
                          bar[k][n:, n:])
        for s in range(steps - 1, -1, -1):
            i = k * steps + s
            Y, Y_next = path[i], path[i + 1]
            K = np.linalg.solve(E + F @ Y, Lam).T
            YK = Y_next @ K
            Cb += K
            Db += K @ Y
            Eb -= YK
            Fb -= YK @ Y
            Lam = _sym((D - Y_next @ F).T @ K)
            if i > 0 and running and i % m == 0:
                Lam = Lam + node[i // m]
    return np.tensordot(U_pullback(bar), inst.S, axes=([1, 2], [1, 2]))


def _sweep_pair(inst, N, substeps, rates):
    """(batched, step-by-step) info gradients and the map steps per stage."""
    problem = ShootingProblem(instance=inst, N=N, kind="info",
                              substeps=substeps)
    _, _, traj, maps = optimize._forward(problem, rates)
    steps = (len(maps[2]) - 1) // N
    return (optimize._info_gradient(problem, traj, maps),
            reference_info_gradient(problem, traj, maps), steps)


def _spread_rates(inst, N, seed):
    return centered_rates(inst.polytope, N) * \
        rng_for(seed).uniform(0.0, 2.0, size=(N, inst.M))


@pytest.mark.parametrize("case", ["reference", "mixed"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_info_adjoint_is_bit_equal_with_one_step_per_stage(case,
                                                                   seed):
    # a terminal weight and no stiff stage: one map step per stage, so no
    # sum over a stage's steps can reassociate
    if case == "reference":
        inst = random_instance(InstanceSpec(n=5, M=30, p=1, seed=0, T=3.0,
                                            budget=5.0))
    else:
        inst = mixed_instance(seed)
    G, ref, steps = _sweep_pair(inst, 30, 10, _spread_rates(inst, 30, seed))
    assert steps == 1
    np.testing.assert_array_equal(G, ref)


@pytest.mark.parametrize("case", ["running", "split", "split-running"])
def test_batched_info_adjoint_matches_the_step_by_step_sweep(case):
    # several map steps per stage (running-weight nodes, a stiff stage's
    # split, or both).  The per-stage sums run in the sweep's order, but
    # the order of a reduction is numpy's to choose, so they may reassociate
    if case == "running":
        inst = random_instance(InstanceSpec(n=4, M=5, p=1, seed=3, T=2.0,
                                            budget=4.0))
    else:
        inst = _stiff_instance(5, True, False, 1e-4)
    if case != "split":
        inst = replace(inst, weights=WeightSpec(
            W_stages=_stage_weights(inst.n, 5, 4), W_T=inst.weights.W_T))
    G, ref, steps = _sweep_pair(inst, 5, 3, _spread_rates(inst, 5, 6))
    assert steps > 1
    assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("case", ["reference", "split-running"])
def test_one_product_step_is_the_two_product_step(case):
    # every step of the forward, [E + F Y; C + D Y] read off one product,
    # is bit for bit the step formed from the four blocks
    if case == "reference":
        inst = random_instance(InstanceSpec(n=5, M=30, p=1, seed=0, T=3.0,
                                            budget=5.0))
    else:
        inst = replace(_stiff_instance(5, True, False, 1e-4),
                       weights=WeightSpec(W_stages=_stage_weights(3, 5, 4),
                                          W_T=np.eye(3)))
    N = 5
    sched = Schedule(N=N, T=inst.T, rates=_spread_rates(inst, N, 2))
    _, (_, Phi, path) = optimize._info_forward(inst, sched, 3)
    n, steps = inst.n, (len(path) - 1) // N
    for i in range(len(path) - 1):
        Phi_k = Phi[i // steps]
        E, F = Phi_k[:n, :n], Phi_k[:n, n:]
        C, D = Phi_k[n:, :n], Phi_k[n:, n:]
        Y = path[i]
        step = _sym(np.linalg.solve((E + F @ Y).T, (C + D @ Y).T))
        np.testing.assert_array_equal(path[i + 1], step)


@pytest.mark.parametrize("blocks", ["zero", "nan"])
def test_exact_forward_failures_are_typed(monkeypatch, blocks):
    # a singular step map, or a non-finite one, raises the solver's typed
    # error, so a line search counts a failed trial
    problem = ShootingProblem(instance=make_scalar_instance(q=1.0), N=2,
                              kind="info")
    real = optimize.hamiltonian_maps

    def broken(A, Q, U, h):
        U_pullback, Phi, m = real(A, Q, U, h)
        bad = np.full_like(Phi, 0.0 if blocks == "zero" else np.nan)
        return U_pullback, bad, m

    monkeypatch.setattr(optimize, "hamiltonian_maps", broken)
    match = "singular" if blocks == "zero" else "non-finite"
    with pytest.raises(PositiveDefinitenessError, match=match):
        objective(problem, np.ones((2, 1)))


def test_a_singular_step_in_the_reverse_sweep_is_typed():
    # the reverse sweep solves with each step's Z_i = E + F Y_i, which the
    # forward already solved with; were one singular, LAPACK's NaN fill
    # would raise the solver's typed error, never give a NaN gradient
    problem = ShootingProblem(instance=make_scalar_instance(q=1.0), N=2,
                              kind="info")
    _, _, traj, (U_pullback, Phi, path) = optimize._forward(
        problem, np.ones((2, 1)))
    singular = Phi.copy()
    singular[1, :1] = 0.0       # stage 1's E and F: Z = 0
    with pytest.raises(PositiveDefinitenessError,
                       match="non-finite adjoint in info surrogate stage 1"):
        optimize._info_gradient(problem, traj, (U_pullback, singular, path))


@pytest.mark.parametrize("weights", ["terminal", "running"])
def test_a_solve_writes_the_report_of_numpys_own_solve(monkeypatch, weights):
    # the info form's two step-by-step loops call LAPACK's dgesv gufunc
    # directly (optimize._solve).  np.linalg.solve runs the same routine on
    # the same arrays, so a whole solve, whose Barzilai-Borwein steps
    # amplify roundoff, writes its report byte for byte: iterations,
    # history and schedule.  Every solve it makes is compared as well,
    # since a later rounding can absorb a one-ulp move of a single one
    inst = random_instance(InstanceSpec(n=3, M=4, p=1, seed=0, T=2.0,
                                        budget=4.0))
    if weights == "running":
        inst = replace(inst, weights=WeightSpec(
            W_stages=_stage_weights(3, 6, 5), W_T=inst.weights.W_T))
    problem = ShootingProblem(instance=inst, N=6, kind="info", substeps=2)

    def run(kernel):
        solves = []

        def recorded(a, b):
            solves.append(kernel(a, b))
            return solves[-1]

        monkeypatch.setattr(optimize, "_solve", recorded)
        rep = solve(problem, SolveOptions(max_iters=60))
        return json.dumps(rep.to_dict(include_timings=False)), solves

    direct, direct_solves = run(optimize._solve)
    assert json.loads(direct)["iterations"] >= 30
    reference, reference_solves = run(np.linalg.solve)
    assert reference == direct
    assert len(reference_solves) == len(direct_solves)
    for x, y in zip(reference_solves, direct_solves):
        np.testing.assert_array_equal(x, y)


def test_too_stiff_stage_is_typed():
    # a step is split until each map step grows by at most e; past
    # MAX_MAP_SPLIT steps that is a typed error, not a stall.  Scalar, a = 0:
    # y' = u - q y^2, so y(t) = r tanh(r q t + atanh(y0 / r)), r = sqrt(u/q)
    problem = ShootingProblem(
        instance=make_scalar_instance(q=1.0, budget=1e7), N=1, kind="info")
    u = 1000.0
    r = math.sqrt(u)
    y = r * math.tanh(r + math.atanh(1.0 / r))
    assert objective(problem, np.array([[u]])) == \
        pytest.approx(1.0 / y, rel=1e-12)
    with pytest.raises(PositiveDefinitenessError, match="too stiff"):
        objective(problem, np.array([[1e7]]))


def test_solve_counts_a_failed_trial(monkeypatch):
    # a line-search forward that loses positive definiteness is a failed
    # trial: the step shrinks and the solve goes on
    inst = make_scalar_instance(budget=3.0)
    problem = ShootingProblem(instance=inst, N=2, kind="info", substeps=2)
    calls = []
    real = optimize._info_forward

    def fail_second(instance, sched, substeps):
        calls.append(sched.rates.copy())
        if len(calls) == 2:
            raise PositiveDefinitenessError("lost positive definiteness")
        return real(instance, sched, substeps)

    monkeypatch.setattr(optimize, "_info_forward", fail_second)
    report = solve(problem, options=SolveOptions(max_iters=20))
    assert len(calls) > 2
    assert report.converged
    assert abs(report.objective - 0.25) <= 1e-6


def test_zero_information_sensor_has_zero_gradient_column():
    system = SystemModel(
        n=2,
        A=np.array([[-0.3, 0.0], [0.0, 0.2]]),
        Q=0.4 * np.eye(2),
        P0=np.eye(2),
        T=1.0,
    )
    sensors = (
        Sensor(H=np.array([[1.0, 0.0]]), R=np.array([[0.5]])),
        Sensor(H=np.zeros((1, 2)), R=np.array([[1.0]])),
    )
    inst = Instance(
        system=system,
        sensors=sensors,
        polytope=ResourcePolytope(C=np.ones((1, 2)), b=np.array([4.0])),
        weights=WeightSpec(W_stages=None, W_T=np.eye(2)),
    )
    for kind in ("info", "cov"):
        problem = ShootingProblem(instance=inst, N=3, kind=kind, substeps=4)
        _, G = objective_and_gradient(problem, centered_rates(inst.polytope, 3))
        assert np.all(G[:, 1] == 0.0), kind
        assert np.any(G[:, 0] != 0.0), kind


def test_duplicate_sensors_share_gradient_columns():
    system = SystemModel(
        n=2,
        A=np.array([[-0.2, 0.1], [0.0, -0.4]]),
        Q=0.3 * np.eye(2),
        P0=2.0 * np.eye(2),
        T=1.5,
    )
    twin = dict(H=np.array([[0.7, -0.2]]), R=np.array([[0.6]]))
    inst = Instance(
        system=system,
        sensors=(Sensor(**twin), Sensor(**twin)),
        polytope=ResourcePolytope(C=np.ones((1, 2)), b=np.array([3.0])),
        weights=WeightSpec(W_stages=None, W_T=np.eye(2)),
    )
    for kind in ("info", "cov"):
        problem = ShootingProblem(instance=inst, N=4, kind=kind, substeps=5)
        _, G = objective_and_gradient(problem, centered_rates(inst.polytope, 4))
        assert np.allclose(G[:, 0], G[:, 1], rtol=0, atol=1e-14), kind


def _stage_weights(n, n_stages, seed):
    # distinct positive definite running weights, one per weight stage
    B = rng_for(seed).normal(size=(n_stages, n, n))
    return np.einsum("kab,kcb->kac", B, B) + 0.1 * np.eye(n)


# seed x kind x weights
GRADIENT_CASES = [
    pytest.param(seed, kind, weights, id="-".join(
        [str(seed), kind] + ([] if weights == "terminal" else ["rk4", weights])))
    for seed, kind, weights in itertools.product(
        (7, 8), ("info", "cov"), ("terminal", "running"))
]


@pytest.mark.parametrize("seed,kind,weights", GRADIENT_CASES)
def test_gradient_matches_central_differences(seed, kind, weights):
    inst = random_instance(InstanceSpec(n=3, M=3, p=1, seed=seed, T=2.0,
                                        budget=4.0))
    if weights == "running":
        # three weight stages over five control intervals: the node adjoint
        # enters at every substep node, with stage changes inside intervals
        inst = replace(inst, weights=WeightSpec(
            W_stages=_stage_weights(3, 3, seed), W_T=inst.weights.W_T))
    problem = ShootingProblem(instance=inst, N=5, kind=kind, substeps=6)
    rates = centered_rates(inst.polytope, 5)
    assert gradient_check(problem, rates) <= 1e-6


def test_info_gradient_matches_central_differences_at_twenty_states():
    # the north star's n = 20, with running weights: each stage's two nodes
    # are split into map steps (m = 2), and each map step's exponential is
    # squared (s = 2), so the adjoint runs both loops of expm back.  Four
    # sensors see few of the 20 states, so J is thousands of times its
    # gradient, and a step of 1e-4 keeps the differences' roundoff well
    # below the tolerance
    inst = random_instance(InstanceSpec(n=20, M=4, p=1, seed=22, T=2.0,
                                        budget=100.0))
    inst = replace(inst, weights=WeightSpec(
        W_stages=_stage_weights(20, 3, 22), W_T=inst.weights.W_T))
    problem = ShootingProblem(instance=inst, N=3, kind="info", substeps=2)
    rates = centered_rates(inst.polytope, 3)
    _, (_, _, path) = optimize._info_forward(inst, problem.schedule(rates), 2)
    assert (len(path) - 1) // (3 * 2) >= 2
    assert gradient_check(problem, rates, fd_step=1e-4) <= 1e-6


def test_gradient_check_rejects_boundary_point():
    inst = make_scalar_instance()
    problem = ShootingProblem(instance=inst, N=2, kind="info", substeps=2)
    with pytest.raises(ValidationError, match="interior"):
        gradient_check(problem, np.array([[1.0], [0.0]]))


def test_gradient_check_flags_corrupted_gradient(monkeypatch):
    inst = make_scalar_instance()
    problem = ShootingProblem(instance=inst, N=2, kind="info", substeps=4)

    def corrupted(prob, rates):
        J, G = objective_and_gradient(prob, rates)
        return J, 1.1 * G

    monkeypatch.setattr(optimize, "objective_and_gradient", corrupted)
    worst = gradient_check(problem, np.ones((2, 1)))
    assert worst > 0.05


def test_gradient_check_fails_a_nan_gradient_entry(monkeypatch):
    # negative control: max(worst, nan) keeps worst, so a NaN entry must
    # count as an infinite error rather than vanish
    problem = ShootingProblem(instance=make_scalar_instance(), N=2,
                              kind="info", substeps=4)

    def with_nan(prob, rates):
        J, G = objective_and_gradient(prob, rates)
        G[0, 0] = np.nan
        return J, G

    monkeypatch.setattr(optimize, "objective_and_gradient", with_nan)
    assert gradient_check(problem, np.ones((2, 1))) == math.inf


@pytest.mark.parametrize("fd_step", [0.0, -1e-5, math.nan, math.inf])
def test_gradient_check_rejects_a_vacuous_step(fd_step):
    # negative control: a zero step makes every difference 0/0
    problem = ShootingProblem(instance=make_scalar_instance(), N=2,
                              kind="info", substeps=4)
    with pytest.raises(ValidationError, match="fd_step"):
        gradient_check(problem, np.ones((2, 1)), fd_step=fd_step)


class _LoopPoint:
    """Per-sensor reference of the cov rate linearized at P: one
    covariance_decrement per sensor, summed in a Python loop."""

    def __init__(self, A, Q, sensors, lam, P):
        self.A, self.lam = A, lam
        self.g = [covariance_decrement(P, s) for s in sensors]
        self.B = [s.H.T @ np.linalg.solve(s.H @ P @ s.H.T + s.R, s.H @ P)
                  for s in sensors]
        self._rate = A @ P + P @ A.T + Q
        for lam_j, g in zip(lam, self.g):
            self._rate = self._rate - lam_j * g

    def rate(self):
        return self._rate

    def vjp(self, L):
        out = self.A.T @ L + L @ self.A
        for lam_j, B in zip(self.lam, self.B):
            BL = B @ L
            out = out - lam_j * (BL + BL.T - BL @ B.T)
        return out


def _loop_point(A, Q, sensors, lam):
    # _rk4_stages' linearize contract: the rate first
    def point(X):
        pt = _LoopPoint(A, Q, sensors, lam, X)
        return pt.rate(), pt
    return point


def _loop_cov_objective_and_gradient(problem, rates):
    # the cov surrogate and its reverse sweep, stepped with the per-sensor
    # reference point
    inst = problem.instance
    A, Q, sensors = inst.system.A, inst.system.Q, inst.sensors
    N, S = problem.N, problem.substeps
    h = inst.T / (N * S)
    P = [inst.system.P0]
    for i in range(N * S):
        rhs = lambda X: _LoopPoint(A, Q, sensors, rates[i // S], X).rate()
        P.append(_sym(_rk4_step(P[-1], h, rhs)))
    times = np.linspace(0.0, inst.T, N * S + 1)
    J = pathwise_cost(Trajectory(COV, times, np.array(P)), inst.weights)
    table = node_weights(times, inst.weights)
    Lam = table[-1]
    G = np.zeros_like(rates)
    for i in range(N * S - 1, -1, -1):
        k = i // S
        point = _loop_point(A, Q, sensors, rates[k])
        points = [pt for _, pt in _rk4_stages(P[i], h, point)]
        Lam, kbars = _rk4_reverse(h, [pt.vjp for pt in points], Lam)
        for pt, kbar in zip(points, kbars):
            G[k] -= [np.sum(kbar * g) for g in pt.g]
        if i > 0:
            Lam = Lam + table[i]
    return np.array(P), J, G


def test_cov_stacked_kernels_match_a_per_sensor_loop():
    # output dimensions 1 and 2 interleaved, a zero rate on a p = 2 sensor
    inst = mixed_instance(seed=61)
    inst = replace(inst, weights=WeightSpec(
        W_stages=_stage_weights(4, 3, 61), W_T=inst.weights.W_T))
    problem = ShootingProblem(instance=inst, N=4, kind="cov", substeps=5)
    interior = rng_for(62).uniform(0.2, 1.5, size=(4, inst.M))
    rates = interior.copy()
    rates[1, 3] = 0.0
    path = surrogate.integrate_cov_surrogate(
        inst, problem.schedule(rates), substeps=5).values
    J, G = objective_and_gradient(problem, rates)
    path_ref, J_ref, G_ref = _loop_cov_objective_and_gradient(problem, rates)
    assert np.abs(path - path_ref).max() <= 1e-12 * np.abs(path_ref).max()
    assert abs(J - J_ref) <= 1e-12 * abs(J_ref)
    assert np.abs(G - G_ref).max() <= 1e-12 * np.abs(G_ref).max()
    assert gradient_check(problem, interior) <= 1e-6


def test_cov_scalar_gains_match_a_per_sensor_loop():
    # every sensor has p = 1, so the forward and the replay take the
    # reciprocal gains; the per-sensor reference solves with LAPACK
    inst = random_instance(InstanceSpec(n=4, M=5, p=1, seed=63, T=2.0,
                                        budget=5.0))
    inst = replace(inst, weights=WeightSpec(
        W_stages=_stage_weights(4, 4, 63), W_T=inst.weights.W_T))
    problem = ShootingProblem(instance=inst, N=4, kind="cov", substeps=5)
    rates = rng_for(64).uniform(0.2, 1.5, size=(4, inst.M))
    rates[2, 1] = 0.0
    J, G = objective_and_gradient(problem, rates)
    _, J_ref, G_ref = _loop_cov_objective_and_gradient(problem, rates)
    assert abs(J - J_ref) <= 1e-12 * abs(J_ref)
    assert np.abs(G - G_ref).max() <= 1e-12 * np.abs(G_ref).max()


@pytest.mark.parametrize("p, calls", [(1, 0), (2, 4 * 2 * 3 + 4 * 2)])
def test_cov_gains_call_lapack_only_when_p_exceeds_one(monkeypatch, p,
                                                       calls):
    # a p = 1 stack solves its scalar innovations without np.linalg.solve;
    # a p = 2 stack takes one batched solve per stage point: four per RK4
    # step of the forward, four per stage of the replay
    inst = random_instance(InstanceSpec(n=3, M=4, p=p, seed=65, T=1.0,
                                        budget=5.0))
    problem = ShootingProblem(instance=inst, N=2, kind="cov", substeps=3)
    rates = centered_rates(inst.polytope, 2)
    real, count = np.linalg.solve, [0]

    def counting(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(np.linalg, "solve", counting)
    objective_and_gradient(problem, rates)
    assert count[0] == calls


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def _flat_instance(seed):
    """Instance whose five sensors all have p = 1: the flat row layout."""
    return random_instance(InstanceSpec(n=4, M=5, p=1, seed=seed, T=2.0,
                                        budget=5.0))


@pytest.mark.parametrize("rates", ["interior", "one-zero", "all-zero",
                                   "flat-one-zero", "flat-all-zero"])
def test_cov_rank_p_kernels_match_a_per_sensor_loop(rates):
    # output dimensions 1 and 2 interleaved (padded rows), or p = 1 only
    # (flat rows), on a stack of three step inputs: the rate and vjp of
    # every replayed stage point against the per-sensor reference stepped
    # from each input alone
    flat = rates.startswith("flat-")
    inst = _flat_instance(87) if flat else mixed_instance(seed=81)
    A, Q, H, R = inst.system.A, inst.system.Q, inst.H, inst.R
    gains = cov_gains(H, R)
    assert isinstance(gains, RowGains if flat else StackGains)
    rng = rng_for(82)
    lam = rng.uniform(0.2, 1.5, size=inst.M)
    if rates.endswith("one-zero"):
        lam[1] = 0.0        # a p = 2 sensor on the mixed instance
    elif rates.endswith("all-zero"):
        lam[:] = 0.0
    xs = np.stack([random_spd(rng, inst.n, 0.3) for _ in range(3)])
    h = 0.05
    points = optimize._cov_stage_points(A, Q, gains, lam, xs, h)
    for s, x in enumerate(xs):
        ref = _rk4_stages(x, h, _loop_point(A, Q, inst.sensors, lam))
        # the forward's rate of one matrix, not a stack
        one = cov_rhs(x, A, Q, gains.gain_term(x, lam))
        assert _rel(one, ref[0][0]) <= 1e-13
        for (rate, _, sol, lam_sol, At), (rate_ref, pt) in zip(points, ref):
            assert _rel(rate[s], rate_ref) <= 1e-13
            B = rng.normal(size=(inst.n, inst.n))
            L = B + B.T
            vjp = optimize._cov_vjp(gains, At[s], lam_sol[s], sol[s], L)
            assert _rel(vjp, pt.vjp(L)) <= 1e-13


def test_cov_stage_replay_is_the_step_by_step_replay():
    # one stage's steps replayed in one batch, or one step at a time, on
    # stacks (mixed p) and on flat rows (p = 1 only, one zero rate)
    for inst, zero in ((mixed_instance(seed=83), None),
                       (_flat_instance(88), 2)):
        A, Q = inst.system.A, inst.system.Q
        gains = cov_gains(inst.H, inst.R)
        rng = rng_for(84)
        lam = rng.uniform(0.0, 1.5, size=inst.M)
        if zero is not None:
            lam[zero] = 0.0
        xs = np.stack([random_spd(rng, inst.n, 0.3) for _ in range(5)])
        batch = optimize._cov_stage_points(A, Q, gains, lam, xs, 0.05)
        for s in range(len(xs)):
            single = optimize._cov_stage_points(A, Q, gains, lam,
                                                xs[s:s + 1], 0.05)
            for got, want in zip(batch, single):
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g[s], w[0])


def test_cov_gradient_check_when_n_exceeds_p():
    # n = 12 against p <= 2: the rank-p shapes are far from square
    inst = mixed_instance(seed=85, n=12)
    problem = ShootingProblem(instance=inst, N=3, kind="cov", substeps=3)
    rates = rng_for(86).uniform(0.2, 1.5, size=(3, inst.M))
    assert gradient_check(problem, rates) <= 1e-6


def test_cov_gradient_at_zero_rates_matches_one_sided_differences():
    # the forward skips a zero-rate sensor, which still has a gradient
    inst = mixed_instance(seed=71)
    problem = ShootingProblem(instance=inst, N=3, kind="cov", substeps=4)
    rates = rng_for(72).uniform(0.2, 1.5, size=(3, inst.M))
    rates[:, 1] = 0.0
    rates[2, 4] = 0.0
    _, G = objective_and_gradient(problem, rates)
    h = 1e-4
    for k, j in [(0, 1), (1, 1), (2, 1), (2, 4)]:
        J = []
        for c in (0, 1, 2):
            trial = rates.copy()
            trial[k, j] = c * h
            J.append(objective(problem, trial))
        # second-order one-sided stencil
        fd = (-3.0 * J[0] + 4.0 * J[1] - J[2]) / (2.0 * h)
        assert G[k, j] != 0.0
        assert abs(fd - G[k, j]) <= 1e-6 * np.abs(G).max()


def test_objective_agrees_with_gradient_forward_pass():
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=5, T=1.0,
                                        budget=3.0))
    for kind in ("info", "cov"):
        problem = ShootingProblem(instance=inst, N=3, kind=kind, substeps=4)
        rates = centered_rates(inst.polytope, 3)
        J, _ = objective_and_gradient(problem, rates)
        assert J == objective(problem, rates)


@settings(derandomize=True)
@given(st.integers(0, 10_000), st.sampled_from([2, 3]), st.sampled_from([3, 4]),
       st.booleans(), st.sampled_from([0.5, 3.0, 20.0]))
def test_info_objective_is_convex_along_chords(seed, n, M, running, top):
    # convexity of the info surrogate in the rates is measured, not proven:
    # the midpoint of a chord between two rate tables lies under it
    rng = rng_for(seed)
    inst = random_instance(InstanceSpec(n=n, M=M, p=1, seed=seed))
    if running:
        inst = replace(inst, weights=WeightSpec(
            W_stages=_stage_weights(n, 3, seed + 1), W_T=np.eye(n)))
    problem = ShootingProblem(instance=inst, N=3)
    a, b = rng.uniform(0.0, top, (2, 3, M))
    Ja, Jb, Jmid = (objective(problem, x) for x in (a, b, 0.5 * (a + b)))
    assert Jmid <= 0.5 * (Ja + Jb) + 1e-12 * abs(Jmid)


def test_shooting_problem_validation():
    inst = make_scalar_instance()
    with pytest.raises(ValidationError, match="kind"):
        ShootingProblem(instance=inst, N=2, kind="dual")
    with pytest.raises(ValidationError, match="N"):
        ShootingProblem(instance=inst, N=0)
    with pytest.raises(ValidationError, match="substeps"):
        ShootingProblem(instance=inst, N=2, substeps=0)


@pytest.mark.parametrize("bad", [
    {"max_iters": -3}, {"max_iters": 2.5}, {"grad_tol": math.nan},
    {"grad_tol": math.inf}, {"grad_tol": -1e-6},
], ids=["max_iters-negative", "max_iters-float", "grad_tol-nan",
        "grad_tol-inf", "grad_tol-negative"])
def test_solve_options_validation(bad):
    with pytest.raises(ValidationError, match=next(iter(bad))):
        SolveOptions(**bad)
    assert SolveOptions(max_iters=0, grad_tol=0.0).max_iters == 0


# ---------------------------------------------------------------------------
# solver behavior


def test_solve_saturates_single_sensor_budget():
    # one sensor, static state: the objective is strictly decreasing in every
    # rate, so the optimum pins each stage at the budget
    inst = make_scalar_instance(budget=3.0)
    problem = ShootingProblem(instance=inst, N=4, kind="info", substeps=4)
    report = solve(problem)
    assert report.converged
    assert report.pg_norm <= 1e-6
    assert np.allclose(report.schedule.rates, 3.0, atol=1e-6)
    assert abs(report.objective - 0.25) <= 1e-6


def test_solve_with_negligible_budget_returns_open_loop_cost():
    # var' = 2 a var + q with no measurements
    expected = (2.0 - 0.3) * math.exp(-1.0) + 0.3
    for budget in (1e-12, 0.0):
        inst = make_scalar_instance(a=-0.5, q=0.3, p0=2.0, budget=budget)
        problem = ShootingProblem(instance=inst, N=3, kind="info", substeps=8)
        report = solve(problem)
        assert abs(report.objective - expected) <= 1e-6 * expected
        assert np.all(report.schedule.rates <= budget)


@pytest.mark.parametrize("kind", ["info", "cov"])
def test_solve_integrates_each_iterate_once(kind, monkeypatch):
    # every adjoint sweep consumes the trajectory of a line-search forward:
    # no rate table is integrated twice.  The design forward of the info
    # kind steps exact maps and also hands its stage maps to the adjoint.
    integrated, swept = [], []
    name = "_info_forward" if kind == "info" else "integrate_cov_surrogate"
    original = getattr(optimize, name)

    def record_forward(instance, schedule, *args):
        out = original(instance, schedule, *args)
        traj = out[0] if kind == "info" else out
        integrated.append((schedule.rates.copy(), traj))
        return out

    grad_name = "_gradient"
    original_grad = getattr(optimize, grad_name)

    def record_sweep(problem, sched, traj, maps):
        swept.append(traj)
        return original_grad(problem, sched, traj, maps)

    monkeypatch.setattr(optimize, name, record_forward)
    monkeypatch.setattr(optimize, grad_name, record_sweep)
    inst = random_instance(InstanceSpec(n=2, M=3, p=1, seed=3, T=1.5,
                                        budget=3.0))
    problem = ShootingProblem(instance=inst, N=3, kind=kind, substeps=4)
    report = solve(problem, options=SolveOptions(max_iters=8))
    assert report.iterations >= 2
    assert len(swept) == report.iterations + 1
    produced = [traj for _, traj in integrated]
    assert all(any(t is p for p in produced) for t in swept)
    for (a, _), (b, _) in itertools.combinations(integrated, 2):
        assert not np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["info", "cov"])
def test_solve_descends_from_centered_start(kind):
    inst = random_instance(InstanceSpec(n=2, M=3, p=1, seed=3, T=1.5,
                                        budget=3.0))
    problem = ShootingProblem(instance=inst, N=4, kind=kind, substeps=6)
    opts = SolveOptions(max_iters=60)
    report = solve(problem, options=opts)
    start = objective(problem, centered_rates(inst.polytope, 4))
    assert report.objective <= start + 1e-12
    hist = np.asarray(report.history)
    assert hist.shape == (report.iterations + 1,)
    assert np.all(np.diff(hist) <= 1e-12)
    rates = report.schedule.rates
    assert np.all(rates >= 0.0)
    assert np.all(inst.polytope.C @ rates.T <= inst.polytope.b[:, None] + 1e-9)


def _recorded_forwards(monkeypatch, fail_trials=False):
    """The rate tables optimize._forward is called at, in call order; with
    fail_trials, every call after the first (each a line-search trial)
    loses positive definiteness, which the line search rejects."""
    calls, real = [], optimize._forward

    def forward(problem, rates):
        calls.append(rates.copy())
        if fail_trials and len(calls) > 1:
            raise PositiveDefinitenessError("failed trial")
        return real(problem, rates)

    monkeypatch.setattr(optimize, "_forward", forward)
    return calls


def test_solve_stops_when_the_line_search_finds_no_descent(monkeypatch):
    # with no gradient tolerance the solver descends until the last
    # iteration's MAX_BACKTRACKS trials all fail Armijo's test: an early
    # stop, short of max_iters and not converged, whose report is the last
    # accepted iterate and its objective
    calls = _recorded_forwards(monkeypatch)
    inst = random_instance(InstanceSpec(n=3, M=4, p=1, seed=1, T=1.0))
    problem = ShootingProblem(instance=inst, N=4)
    report = solve(problem, SolveOptions(grad_tol=0.0, max_iters=20000))
    trials = len(calls)
    assert 0 < report.iterations < 20000
    assert not report.converged and report.pg_norm > 0.0
    hist = np.asarray(report.history)
    assert len(hist) == report.iterations + 1 and np.all(np.diff(hist) <= 0)
    assert report.objective == hist[-1] == objective(problem,
                                                     report.schedule.rates)
    accepted = max(k for k, rates in enumerate(calls[:trials])
                   if np.array_equal(rates, report.schedule.rates))
    assert trials - 1 - accepted == optimize.MAX_BACKTRACKS


def test_solve_stops_when_the_projected_step_vanishes(monkeypatch):
    # every trial fails, and with backtracks to spare the halved step drops
    # below 1e-15 of the rates: the solver stops at the start, as the
    # projected step no longer moves it, before MAX_BACKTRACKS trials
    inst = random_instance(InstanceSpec(n=3, M=4, p=1, seed=1, T=1.0))
    problem = ShootingProblem(instance=inst, N=4)
    start = centered_rates(inst.polytope, 4)
    J = objective(problem, start)
    monkeypatch.setattr(optimize, "MAX_BACKTRACKS", 1000)
    calls = _recorded_forwards(monkeypatch, fail_trials=True)
    report = solve(problem, SolveOptions(grad_tol=0.0, max_iters=5))
    assert report.iterations == 0 and not report.converged
    assert 2 < len(calls) < 100
    np.testing.assert_array_equal(report.schedule.rates, start)
    assert report.history == [report.objective] == [J]
    last = np.linalg.norm(calls[-1] - start)
    assert 0.0 < last <= 2e-15 * (1.0 + np.linalg.norm(start))


def test_solve_report_serialization_and_timing_scrub():
    inst = make_scalar_instance(budget=2.0)
    problem = ShootingProblem(instance=inst, N=2, kind="info", substeps=2)
    report = solve(problem, options=SolveOptions(max_iters=3))
    full = report.to_dict()
    scrubbed = report.to_dict(include_timings=False)
    assert full.keys() == scrubbed.keys()
    assert full["schedule"].keys() == {"T", "N", "rates"}
    assert any(v > 0.0 for v in full["timings"].values()
               if not isinstance(v, list))
    # only wall times are zeroed: each iteration keeps its record
    steps = full["timings"].pop("per_iteration")
    assert [it["iteration"] for it in steps] == \
        list(range(1, report.iterations + 1)) and steps
    assert all(it["seconds"] > 0.0 for it in steps)
    assert scrubbed["timings"].pop("per_iteration") == \
        [dict(it, seconds=0.0) for it in steps]
    assert scrubbed["timings"] == dict.fromkeys(full["timings"], 0.0)
    json.dumps(scrubbed)


def test_solve_books_every_projection_as_projection_time(monkeypatch):
    # the line search's trial points and the projected-gradient norm of
    # each iterate are all projections: each call is delayed, and
    # projection_s must hold every delay
    delay = 0.002
    calls = []
    original = optimize.project_schedule

    def delayed(rates, polytope):
        calls.append(rates)
        time.sleep(delay)
        return original(rates, polytope)

    monkeypatch.setattr(optimize, "project_schedule", delayed)
    inst = random_instance(InstanceSpec(n=2, M=3, p=1, seed=3, T=1.5,
                                        budget=3.0))
    problem = ShootingProblem(instance=inst, N=3, kind="info", substeps=4)
    report = solve(problem, options=SolveOptions(max_iters=4))
    assert report.iterations == 4
    assert len(calls) >= 2 * report.iterations + 1
    assert report.timings["projection_s"] >= len(calls) * delay


def test_a_step_without_curvature_doubles_the_last_accepted_one(monkeypatch):
    # one fixed gradient table makes every <dl, dg> zero, so each trial
    # step after the first is twice the last accepted one: from the start
    # 5 at a cap of 10, steps 1, 2 and 4 reach the cap, where the
    # projected gradient vanishes
    inst = make_scalar_instance(budget=10.0)
    problem = ShootingProblem(instance=inst, N=2)
    fixed = -np.ones((2, 1))
    monkeypatch.setattr(optimize, "_gradient", lambda *args: fixed)
    report = solve(problem, SolveOptions(max_iters=10))
    steps = [it["step"] for it in report.timings["per_iteration"]]
    assert steps == [1.0, 2.0, 4.0]
    assert report.converged and report.pg_norm == 0.0
    np.testing.assert_array_equal(report.schedule.rates, np.full((2, 1), 10.0))
