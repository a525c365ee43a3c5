"""Acceptance gate: one test per criterion, one PASS/FAIL line each, and
criterion 8's claim counted by work as well as timed.

Every test prints "[criterion N] PASS/FAIL <detail> (<elapsed>s, cap <cap>s)"
and asserts both the numeric check and its runtime cap.  Run with -s to see
the lines as they stream; sample sizes, seeds, and tolerances are fixed here
so reruns are bit-for-bit comparable.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq

from infosched import cli, optimize, riccati
from infosched.bounds import objective_bracket, snr_sweep, trajectory_bracket
from infosched.model import InstanceSpec, Schedule, Sensor, random_instance
from infosched.montecarlo import mc_objective, run_seed, sample_arrivals
from infosched.optimize import (
    ShootingProblem,
    SolveOptions,
    centered_rates,
    objective_and_gradient,
    solve,
)
from infosched.riccati import invert_trajectory, jump_cov
from infosched.surrogate import integrate_info_surrogate

from assembly_benchmark import benchmark_assembly
from conftest import make_scalar_instance, random_spd, rng_for
from test_surrogate import direct_cov_riccati

REFERENCE_SPEC = InstanceSpec(n=5, M=30, p=1, seed=0, T=3.0, budget=5.0)


def _finish(num: int, ok: bool, detail: str, t0: float, cap: float):
    elapsed = time.perf_counter() - t0
    in_time = elapsed < cap
    verdict = "PASS" if (ok and in_time) else "FAIL"
    line = f"[criterion {num}] {verdict} {detail} ({elapsed:.1f}s, cap {cap:g}s)"
    print(line)
    assert ok, line
    assert in_time, line


@pytest.fixture(scope="module")
def reference_solution():
    """Reference configuration solved once, shared by criteria 5-7."""
    inst = random_instance(REFERENCE_SPEC)
    problem = ShootingProblem(instance=inst, N=30, kind="info", substeps=10)
    t0 = time.perf_counter()
    report = solve(problem, options=SolveOptions(max_iters=200))
    return inst, report, time.perf_counter() - t0


def test_criterion_1_jump_consistency():
    t0 = time.perf_counter()
    rng = rng_for(100)
    worst = 0.0
    for i in range(200):
        n = 1 + i % 8
        p = int(rng.integers(1, n + 1))
        P = random_spd(rng, n)
        sensor = Sensor(H=rng.normal(size=(p, n)), R=random_spd(rng, p))
        lhs = np.linalg.inv(jump_cov(P, sensor))
        rhs = np.linalg.inv(P) + sensor.S
        worst = max(worst, float(np.linalg.norm(lhs - rhs)
                                 / np.linalg.norm(rhs)))
    _finish(1, worst <= 1e-8,
            f"jump consistency over 200 pairs, worst rel err {worst:.2e}",
            t0, 5.0)


def test_criterion_2_coordinate_duality():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        seed = 200 + i
        n, M, N = 2 + i % 4, 2 + i % 5, 8 + i % 3
        inst = random_instance(InstanceSpec(n=n, M=M, p=1, seed=seed,
                                            T=3.0, budget=5.0))
        rates = rng_for(seed).uniform(0.0, 5.0 / M, size=(N, M))
        sched = Schedule(N=N, T=3.0, rates=rates)
        p_info = invert_trajectory(integrate_info_surrogate(inst, sched, 20))
        oracle = direct_cov_riccati(inst, sched, substeps=20, refine=50)
        num = np.linalg.norm(p_info.values - oracle, axis=(1, 2))
        den = np.linalg.norm(oracle, axis=(1, 2))
        worst = max(worst, float(np.max(num / den)))
    _finish(2, worst <= 1e-7,
            f"inverted info path vs converged direct integration over 20 "
            f"instances, worst nodewise rel err {worst:.2e}", t0, 30.0)


def test_criterion_3_gradient_exactness(capsys):
    t0 = time.perf_counter()
    codes = [
        cli.main(["gradcheck", "--kind", "both"]),
        cli.main(["gradcheck", "--random", "n=3,M=5,seed=31", "--N", "6",
                  "--T", "2.0", "--budget", "4"]),
        cli.main(["gradcheck", "--random", "n=6,M=10,seed=32", "--N", "10",
                  "--T", "3.0", "--budget", "5"]),
    ]
    with capsys.disabled():
        _finish(3, codes == [0, 0, 0],
                f"gradcheck exit codes {codes} on scalar, (n=3,M=5), "
                f"(n=6,M=10) at tol 1e-6, both kinds", t0, 60.0)


def test_criterion_4_objective_bracket_closed_form():
    t0 = time.perf_counter()
    inst = make_scalar_instance()
    sched = Schedule(N=1, T=1.0, rates=np.array([[2.0]]))
    rep = objective_bracket(inst, sched, n_runs=5000, n_eval=25,
                            surrogate_substeps=50, seed=400)
    root = brentq(lambda p: math.log(p) - 1.0 / p + 3.0, 1e-6, 1.0,
                  xtol=1e-15)
    exact = (1.0 - math.exp(-2.0)) / 2.0
    mean_dev = abs(rep.mc.mean - exact)
    ok = (
        abs(rep.j_lower - 1.0 / 3.0) <= 1e-9
        and abs(rep.j_upper - root) <= 1e-6
        and mean_dev <= 3.0 * rep.mc.stderr
        and rep.contained
    )
    _finish(4, ok,
            f"J_lower={rep.j_lower:.6f} (1/3), mean dev {mean_dev:.2e} vs "
            f"3se {3 * rep.mc.stderr:.2e} at 5000 runs, "
            f"J_upper={rep.j_upper:.6f} (root {root:.6f}), "
            f"contained={rep.contained}", t0, 60.0)


def test_criterion_5_reference_bracket(reference_solution):
    inst, report, solve_s = reference_solution
    t0 = time.perf_counter() - solve_s      # charge the shared solve here
    rep = trajectory_bracket(inst, report.schedule, n_runs=100, n_eval=300,
                             surrogate_substeps=10, seed=500)
    det_ok = bool(np.all(rep.margins["cov_minus_info"]
                         >= -rep.margin_tol["cov_minus_info"]))
    ok = rep.contained and det_ok
    _finish(5, ok,
            f"reference schedule: J_lower={rep.j_lower:.3f} <= "
            f"mean={rep.mc.mean:.3f} <= J_upper={rep.j_upper:.3f} "
            f"(contained={rep.contained}), deterministic sandwich at all "
            f"{rep.times.size} nodes={det_ok}", t0, 300.0)


def test_criterion_6_snr_sweep(reference_solution):
    inst, report, _ = reference_solution
    t0 = time.perf_counter()
    sweep = snr_sweep(inst, report.schedule, n_runs=100, n_eval=300,
                      surrogate_substeps=10, seed=600)
    n_contained = sum(rep.contained for _, rep in sweep)
    widths = [rep.normalized_width for _, rep in sweep]
    ok = len(sweep) == 9 and n_contained == 9
    _finish(6, ok,
            f"containment at {n_contained}/9 noise scales; normalized "
            f"widths (reported, not gated) "
            f"{min(widths):.3g}..{max(widths):.3g}", t0, 900.0)


def test_criterion_7_optimizer_quality(reference_solution):
    inst, report, _ = reference_solution
    t0 = time.perf_counter()
    centered = Schedule(N=30, T=3.0, rates=centered_rates(inst.polytope, 30))
    est_cen = mc_objective(inst, centered, n_runs=100, n_eval=300,
                           seed=700)
    est_opt = mc_objective(inst, report.schedule, n_runs=100, n_eval=300,
                           seed=700)
    slack = 3.0 * math.hypot(est_cen.stderr, est_opt.stderr)
    hist = np.asarray(report.history)
    monotone = bool(np.all(np.diff(hist) <= 1e-12))
    ok = est_opt.mean <= est_cen.mean + slack and monotone
    _finish(7, ok,
            f"MC(optimized)={est_opt.mean:.3f} vs MC(centered)="
            f"{est_cen.mean:.3f} (slack {slack:.2g}); history "
            f"nonincreasing={monotone} over {report.iterations} iterations",
            t0, 300.0)


def test_criterion_8_assembly_cost_trend():
    t0 = time.perf_counter()
    ratios = []
    for M in (30, 60, 100):
        inst = random_instance(InstanceSpec(n=5, M=M, p=1, seed=800 + M,
                                            T=3.0, budget=5.0))
        res = benchmark_assembly(inst, N=30, repetitions=10, substeps=10)
        ratios.append(res.ratio)
    ok = all(r > 1.0 for r in ratios) and ratios == sorted(ratios)
    _finish(8, ok,
            "cov/info gradient-assembly median ratios at M=30,60,100: "
            + ", ".join(f"{r:.1f}" for r in ratios)
            + " (each > 1, nondecreasing)", t0, 600.0)


def test_criterion_8_claim_counted_by_work(monkeypatch):
    # criterion 8's instances at the centered rates, counted rather than
    # timed, over one objective_and_gradient: the cov kind's gain kernels
    # take each of the M sensor rows at 8 N S stage points (four RK4
    # stages per step, forward and replay), which grows with M, and with
    # p = 1 no LAPACK solve; the info kind's work at the stages is one
    # matrix exponential of its N Hamiltonians and 2 N solves of n x n
    # systems at every M: a terminal weight makes each stage one map step,
    # solved once in the forward and once in the reverse sweep
    N, S = 30, 10
    rows, expms, solves = [], [], []

    def counted(kernel):
        def run(gains, P, lam):
            rows.append(len(gains.rows) * (P.size // P.shape[-1] ** 2))
            return kernel(gains, P, lam)
        return run

    for name in ("gain_term", "factors"):
        monkeypatch.setattr(riccati.RowGains, name,
                            counted(getattr(riccati.RowGains, name)))
    expm = riccati.expm
    monkeypatch.setattr(riccati, "expm",
                        lambda X: expms.append(X.shape) or expm(X))
    for module, name in ((optimize, "_solve"), (np.linalg, "solve")):
        def counted_solve(a, b, _real=getattr(module, name)):
            solves.append(a.shape)
            return _real(a, b)
        monkeypatch.setattr(module, name, counted_solve)
    for M in (30, 60, 100):
        inst = random_instance(InstanceSpec(n=5, M=M, p=1, seed=800 + M,
                                            T=3.0, budget=5.0))
        rates = centered_rates(inst.polytope, N)
        for kind in ("cov", "info"):
            rows.clear()
            expms.clear()
            solves.clear()
            objective_and_gradient(
                ShootingProblem(instance=inst, N=N, kind=kind, substeps=S),
                rates)
            if kind == "cov":
                assert sum(rows) == 8 * N * S * M
                assert expms == [] and solves == []
            else:
                assert rows == [] and expms == [(N, 10, 10)]
                assert solves == [(5, 5)] * 2 * N


def test_criterion_9_poisson_sampler_statistics():
    t0 = time.perf_counter()
    single = Schedule(N=1, T=3.0, rates=np.array([[5.0]]))
    counts = np.array([sample_arrivals(single, run_seed(90001, r)).times.size
                       for r in range(2000)])
    mean, var = float(counts.mean()), float(counts.var(ddof=1))
    mean_ok = abs(mean - 15.0) <= 4.0 * math.sqrt(15.0 / 2000.0)
    var_ok = abs(var - 15.0) <= 0.15 * 15.0

    # merged two-sensor counts against Poisson(6), tail bins pooled to
    # keep every expected count at least 5
    pair = Schedule(N=1, T=3.0, rates=np.array([[1.0, 1.0]]))
    merged = np.array([sample_arrivals(pair, run_seed(90002, r)).times.size
                       for r in range(2000)])
    kmax = int(merged.max())
    obs = np.bincount(merged, minlength=kmax + 1).astype(float)
    pmf = stats.poisson.pmf(np.arange(kmax + 1), 6.0)
    pmf[-1] += stats.poisson.sf(kmax, 6.0)
    exp = pmf * 2000.0
    while exp[-1] < 5.0:
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        exp, obs = exp[:-1], obs[:-1]
    while exp[0] < 5.0:
        exp[1] += exp[0]
        obs[1] += obs[0]
        exp, obs = exp[1:], obs[1:]
    chi_p = float(stats.chisquare(obs, exp).pvalue)

    # superposition: merged per-sensor streams vs one aggregate-rate process
    agg = Schedule(N=1, T=3.0, rates=np.array([[2.0]]))
    gaps_merged, gaps_agg = [], []
    for r in range(2000):
        tm = np.sort(sample_arrivals(pair, run_seed(90003, r)).times)
        ta = np.sort(sample_arrivals(agg, run_seed(90004, r)).times)
        if tm.size > 1:
            gaps_merged.append(np.diff(tm))
        if ta.size > 1:
            gaps_agg.append(np.diff(ta))
    ks_p = float(stats.ks_2samp(np.concatenate(gaps_merged),
                                np.concatenate(gaps_agg)).pvalue)
    ok = mean_ok and var_ok and chi_p > 0.01 and ks_p > 0.01
    _finish(9, ok,
            f"2000-seed count mean {mean:.3f} / var {var:.3f} (target 15), "
            f"merged-count chi-square p={chi_p:.3f}, inter-arrival KS "
            f"p={ks_p:.3f} at significance 0.01", t0, 60.0)


def test_criterion_10_information_side_statistical_bound():
    t0 = time.perf_counter()
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=1000, T=3.0,
                                        budget=5.0))
    sched = Schedule(N=6, T=3.0, rates=centered_rates(inst.polytope, 6))
    rep = trajectory_bracket(inst, sched, n_runs=500, n_eval=100,
                             surrogate_substeps=10, seed=1001)
    margin = rep.margins["info_minus_mc_y"]
    tol = rep.margin_tol["info_minus_mc_y"]
    ok = bool(np.all(margin >= -tol))
    _finish(10, ok,
            f"min-eig(Y_info - mean Y_mc) over {margin.size} nodes: worst "
            f"{float(np.min(margin)):.2e} vs allowance "
            f"{float(np.min(-tol)):.2e} at 500 runs", t0, 120.0)
