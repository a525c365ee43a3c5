import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from infosched import optimize, surrogate
from infosched.optimize import (
    ProjectionError,
    ShootingProblem,
    SolveOptions,
    benchmark_assembly,
    centered_rates,
    gradient_check,
    objective,
    objective_and_gradient,
    project_schedule,
    project_stage,
    solve,
)

from conftest import make_scalar_instance, rng_for


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


# ---------------------------------------------------------------------------
# projections


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


def test_dykstra_handles_unequal_single_row():
    # mixed coefficients disable the sorting fast path but not correctness
    C = np.array([[1.0, 2.0]])
    b = np.array([2.0])
    poly = ResourcePolytope(C=C, b=b)
    rng = rng_for(13)
    for _ in range(25):
        v = rng.uniform(-2.0, 3.0, size=2)
        assert np.allclose(
            project_stage(v, poly), kkt_projection_oracle(v, C, b), atol=1e-7
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


def test_projection_error_at_iteration_cap():
    poly = ResourcePolytope(
        C=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), b=np.array([1.0, 1.0])
    )
    with pytest.raises(ProjectionError, match="iterations"):
        project_stage(np.array([2.0, 2.0, 2.0]), poly, max_iters=1)


def test_project_schedule_is_stagewise():
    poly = ResourcePolytope(C=np.ones((1, 2)), b=np.array([1.0]))
    rates = np.array([[3.0, 1.0], [0.2, 0.3]])
    out = project_schedule(rates, poly)
    assert np.allclose(out[0], project_stage(rates[0], poly))
    assert np.array_equal(out[1], rates[1])


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


def test_zero_information_sensor_has_zero_gradient_column():
    system = SystemModel(
        n=2,
        A=np.array([[-0.3, 0.0], [0.0, 0.2]]),
        Q=0.4 * np.eye(2),
        m0=np.zeros(2),
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
        m0=np.zeros(2),
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


# seed x kind x scheme x weights; an id names the scheme and the weights
# only where they differ from RK4 with a terminal weight alone
GRADIENT_CASES = [
    pytest.param(seed, kind, scheme, weights, id="-".join(
        [str(seed), kind]
        + ([] if (scheme, weights) == ("rk4", "terminal") else [scheme, weights])))
    for seed, kind, scheme, weights in itertools.product(
        (7, 8), ("info", "cov"), ("rk4", "euler"), ("terminal", "running"))
]


@pytest.mark.parametrize("seed,kind,scheme,weights", GRADIENT_CASES)
def test_gradient_matches_central_differences(seed, kind, scheme, weights):
    inst = random_instance(InstanceSpec(n=3, M=3, p=1, seed=seed, T=2.0,
                                        budget=4.0))
    if weights == "running":
        # three weight stages over five control intervals: the node adjoint
        # enters at every substep node, with stage changes inside intervals
        inst = replace(inst, weights=WeightSpec(
            W_stages=_stage_weights(3, 3, seed), W_T=inst.weights.W_T))
    problem = ShootingProblem(instance=inst, N=5, kind=kind, substeps=6,
                              scheme=scheme)
    rates = centered_rates(inst.polytope, 5)
    assert gradient_check(problem, rates) <= 1e-6


def test_gradient_check_euler_scheme():
    inst = make_scalar_instance(a=-0.4, q=0.5, budget=6.0)
    problem = ShootingProblem(instance=inst, N=3, kind="info", substeps=20,
                              scheme="euler")
    assert gradient_check(problem, np.full((3, 1), 1.5)) <= 1e-6


def test_gradient_check_rejects_boundary_point():
    inst = make_scalar_instance()
    problem = ShootingProblem(instance=inst, N=2, kind="info", substeps=2)
    with pytest.raises(ValidationError, match="interior"):
        gradient_check(problem, np.array([[1.0], [0.0]]))


def test_gradient_check_flags_corrupted_gradient():
    inst = make_scalar_instance()
    problem = ShootingProblem(instance=inst, N=2, kind="info", substeps=4)

    def corrupted(prob, rates):
        J, G = objective_and_gradient(prob, rates)
        return J, 1.1 * G

    worst = gradient_check(problem, np.ones((2, 1)), gradient_fn=corrupted)
    assert worst > 0.05


def test_objective_agrees_with_gradient_forward_pass():
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=5, T=1.0,
                                        budget=3.0))
    for kind in ("info", "cov"):
        problem = ShootingProblem(instance=inst, N=3, kind=kind, substeps=4)
        rates = centered_rates(inst.polytope, 3)
        J, _ = objective_and_gradient(problem, rates)
        assert J == objective(problem, rates)


def test_shooting_problem_validation():
    inst = make_scalar_instance()
    with pytest.raises(ValidationError, match="kind"):
        ShootingProblem(instance=inst, N=2, kind="dual")
    with pytest.raises(ValidationError, match="N"):
        ShootingProblem(instance=inst, N=0)
    with pytest.raises(ValidationError, match="substeps"):
        ShootingProblem(instance=inst, N=2, substeps=0)


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
    # no rate table is integrated twice
    integrated, swept = [], []
    name = f"integrate_{kind}_surrogate"
    original = getattr(surrogate, name)

    def record_forward(instance, schedule, *args):
        traj = original(instance, schedule, *args)
        integrated.append((schedule.rates.copy(), traj))
        return traj

    grad_name = "_gradient"
    original_grad = getattr(optimize, grad_name)

    def record_sweep(problem, sched, traj):
        swept.append(traj)
        return original_grad(problem, sched, traj)

    for module in (surrogate, optimize):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, record_forward)
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


def test_solve_projects_array_initial():
    inst = make_scalar_instance(budget=2.0)
    problem = ShootingProblem(instance=inst, N=3, kind="info", substeps=4)
    report = solve(problem, initial=np.full((3, 1), 100.0),
                   options=SolveOptions(max_iters=5))
    assert np.all(report.schedule.rates <= 2.0 + 1e-9)
    assert np.all(np.isfinite(report.history))


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
    for key, value in scrubbed["timings"].items():
        if isinstance(value, list):
            assert value == [0.0] * len(full["timings"][key])
        else:
            assert value == 0.0
    json.dumps(scrubbed)


def test_benchmark_assembly_smoke():
    inst = make_scalar_instance(budget=2.0)
    result = benchmark_assembly(inst, N=2, repetitions=3, substeps=2)
    assert result.repetitions == 3
    assert set(result.gradient_s) == {"info", "cov"}
    assert result.ratio > 0.0
    assert all(len(result.samples[k]["gradient"]) == 3 for k in ("info", "cov"))
    assert all(t > 0.0 for t in result.samples["info"]["forward"])
