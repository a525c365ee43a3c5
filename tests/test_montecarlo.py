import json
from math import factorial

import numpy as np
import pytest
from scipy import stats

from infosched.cdkf import rollout_covariance
from infosched.model import InstanceSpec, Schedule, ValidationError, random_instance
from infosched.montecarlo import (
    mc_mean_trajectories,
    mc_objective,
    run_seed,
    sample_arrivals,
    save_mc_report,
)
from infosched.riccati import flow_cov

from conftest import make_scalar_instance


# ------------------------------------------------------------------ sampling

def test_sample_arrivals_zero_rates_empty():
    sched = Schedule(N=3, T=2.0, rates=np.zeros((3, 2)))
    rec = sample_arrivals(sched, seed=0)
    assert rec.times.size == 0


def test_sample_arrivals_deterministic():
    sched = Schedule(N=4, T=2.0, rates=np.full((4, 3), 1.5))
    a = sample_arrivals(sched, seed=42)
    b = sample_arrivals(sched, seed=42)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.sensors, b.sensors)
    c = sample_arrivals(sched, seed=43)
    assert a.times.size != c.times.size or not np.array_equal(a.times, c.times)


def test_sample_arrivals_sorted_and_in_range():
    sched = Schedule(N=5, T=3.0, rates=np.full((5, 2), 2.0))
    rec = sample_arrivals(sched, seed=7)
    assert np.all(np.diff(rec.times) >= 0.0)
    assert np.all((rec.times >= 0.0) & (rec.times <= 3.0))
    assert np.all((rec.sensors >= 0) & (rec.sensors < 2))


def test_sample_arrivals_respects_stage_rates():
    # rate only in stage 1 of 2: all events land in [T/2, T)
    rates = np.array([[0.0], [8.0]])
    sched = Schedule(N=2, T=2.0, rates=rates)
    rec = sample_arrivals(sched, seed=5)
    assert rec.times.size > 0
    assert np.all(rec.times >= 1.0)


def test_sample_arrivals_poisson_moments():
    sched = Schedule(N=3, T=3.0, rates=np.full((3, 1), 5.0))
    counts = np.fromiter(
        (sample_arrivals(sched, seed=s).times.size for s in range(800)),
        dtype=float)
    # lam*T = 15; light version of the registered acceptance check
    assert abs(counts.mean() - 15.0) <= 4.0 * np.sqrt(15.0 / 800)
    assert abs(counts.var(ddof=1) - 15.0) <= 0.20 * 15.0


def test_superposition_merges_sensor_streams():
    # two unit-rate sensors vs one rate-2 sensor: same law
    two = Schedule(N=2, T=3.0, rates=np.ones((2, 2)))
    one = Schedule(N=2, T=3.0, rates=np.full((2, 1), 2.0))
    gaps_two, gaps_one = [], []
    for s in range(200):
        t2 = sample_arrivals(two, seed=s).times
        t1 = sample_arrivals(one, seed=10_000 + s).times
        gaps_two.extend(np.diff(t2))
        gaps_one.extend(np.diff(t1))
    ks = stats.ks_2samp(gaps_two, gaps_one)
    assert ks.pvalue > 0.01


def test_run_seed_distinct_streams():
    seqs = {tuple(run_seed(0, r).generate_state(2)) for r in range(50)}
    assert len(seqs) == 50


# ----------------------------------------------------------------- objective

def test_mc_objective_zero_rates_degenerate():
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=1, T=1.0))
    sched = Schedule(N=2, T=1.0, rates=np.zeros((2, 2)))
    est = mc_objective(inst, sched, n_runs=5, n_eval=40, seed=0)
    assert est.std == 0.0
    assert np.all(est.per_run_costs == est.per_run_costs[0])
    lyap = np.trace(flow_cov(inst.system.P0, inst.system.A, inst.system.Q,
                             1.0, substeps=120))
    assert est.mean == pytest.approx(lyap, rel=1e-7)


def test_mc_objective_scalar_poisson_expectation():
    # E[1/(1+K)] for K ~ Poisson(2): closed form (1 - e^-2)/2, and the
    # series oracle must agree with it
    series = sum(np.exp(-2.0) * 2.0**k / (factorial(k) * (k + 1))
                 for k in range(60))
    closed = (1.0 - np.exp(-2.0)) / 2.0
    assert abs(series - closed) <= 1e-14
    inst = make_scalar_instance(a=0.0, q=0.0, h=1.0, r=1.0, p0=1.0, T=1.0)
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 1), 2.0))
    est = mc_objective(inst, sched, n_runs=1200, n_eval=20, seed=3)
    assert abs(est.mean - closed) <= 3.0 * est.stderr


def test_mc_objective_parallel_matches_serial():
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=4, T=1.0))
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 2), 1.0))
    serial = mc_objective(inst, sched, n_runs=6, n_eval=30, seed=9, n_jobs=1)
    parallel = mc_objective(inst, sched, n_runs=6, n_eval=30, seed=9,
                            n_jobs=2)
    np.testing.assert_array_equal(serial.per_run_costs,
                                  parallel.per_run_costs)
    assert serial.mean == parallel.mean


def test_mc_mean_trajectories_parallel_matches_serial():
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=4, T=1.0))
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 2), 1.0))
    serial = mc_mean_trajectories(inst, sched, n_runs=6, n_eval=30,
                                  seed=9, n_jobs=1)
    parallel = mc_mean_trajectories(inst, sched, n_runs=6, n_eval=30,
                                    seed=9, n_jobs=2)
    for a, b in ((serial.p_mean, parallel.p_mean),
                 (serial.y_mean, parallel.y_mean)):
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(serial.p_trace_stderr,
                                  parallel.p_trace_stderr)
    np.testing.assert_array_equal(serial.y_trace_stderr,
                                  parallel.y_trace_stderr)
    np.testing.assert_array_equal(serial.objective.per_run_costs,
                                  parallel.objective.per_run_costs)
    assert (serial.objective.mean, serial.objective.std) == \
        (parallel.objective.mean, parallel.objective.std)


def test_mc_objective_estimate_invariants():
    inst = make_scalar_instance(T=1.0)
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 1), 3.0))
    est = mc_objective(inst, sched, n_runs=12, n_eval=25, seed=0)
    assert est.n_runs == 12
    assert est.stderr == pytest.approx(est.std / np.sqrt(12))
    assert est.mean == pytest.approx(np.mean(est.per_run_costs))


def test_mc_objective_rejects_zero_runs():
    inst = make_scalar_instance(T=1.0)
    sched = Schedule(N=1, T=1.0, rates=np.zeros((1, 1)))
    with pytest.raises(ValidationError):
        mc_objective(inst, sched, n_runs=0)


def test_mc_report_json(tmp_path):
    inst = make_scalar_instance(T=1.0)
    sched = Schedule(N=1, T=1.0, rates=np.full((1, 1), 2.0))
    est = mc_objective(inst, sched, n_runs=4, n_eval=15, seed=1)
    path = tmp_path / "mc.json"
    save_mc_report(path, est)
    data = json.loads(path.read_text())
    assert set(data) == {"mean", "std", "stderr", "n_runs", "costs"}
    assert data["n_runs"] == 4
    assert len(data["costs"]) == 4


# ---------------------------------------------------------- mean trajectories

def test_mc_mean_trajectories_zero_rates():
    inst = random_instance(InstanceSpec(n=2, M=1, p=1, seed=6, T=1.0))
    sched = Schedule(N=2, T=1.0, rates=np.zeros((2, 1)))
    out = mc_mean_trajectories(inst, sched, n_runs=3, n_eval=20)
    from infosched.cdkf import ArrivalRecord
    det = rollout_covariance(inst, ArrivalRecord.from_events([]), n_eval=20)
    np.testing.assert_array_equal(out.p_mean.values, det.values)
    assert np.all(out.p_trace_stderr == 0.0)


def test_mc_mean_trajectories_single_run():
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=2, T=1.0))
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 2), 1.0))
    out = mc_mean_trajectories(inst, sched, n_runs=1, n_eval=15, seed=5)
    arrivals = sample_arrivals(sched, run_seed(5, 0))
    single = rollout_covariance(inst, arrivals, n_eval=15)
    np.testing.assert_array_equal(out.p_mean.values, single.values)
    assert np.all(out.p_trace_stderr == 0.0)


def test_mc_mean_trajectories_jensen_direction():
    # inverse of the mean information path never exceeds the mean
    # covariance path by more than statistical slack
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=8, T=1.5,
                                        budget=4.0))
    sched = Schedule(N=3, T=1.5, rates=np.full((3, 2), 1.0))
    out = mc_mean_trajectories(inst, sched, n_runs=200, n_eval=40,
                               seed=11)
    inv_mean_y = np.linalg.inv(out.y_mean.values)
    inv_mean_y = 0.5 * (inv_mean_y + inv_mean_y.transpose(0, 2, 1))
    for i in range(len(out.p_mean.times)):
        diff = out.p_mean.values[i] - inv_mean_y[i]
        floor = 3.0 * out.p_trace_stderr[i] + 1e-9 * np.trace(
            out.p_mean.values[i])
        assert np.linalg.eigvalsh(diff).min() >= -floor


def test_mc_mean_trajectories_same_realizations():
    # y_mean is built from the same arrival draws as p_mean
    inst = random_instance(InstanceSpec(n=2, M=1, p=1, seed=3, T=1.0))
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 1), 2.0))
    out = mc_mean_trajectories(inst, sched, n_runs=4, n_eval=10, seed=21)
    acc_p = np.zeros((11, 2, 2))
    acc_y = np.zeros((11, 2, 2))
    for r in range(4):
        arr = sample_arrivals(sched, run_seed(21, r))
        traj = rollout_covariance(inst, arr, n_eval=10)
        acc_p += traj.values
        inv = np.linalg.inv(traj.values)
        acc_y += 0.5 * (inv + inv.transpose(0, 2, 1))
    np.testing.assert_allclose(out.p_mean.values, acc_p / 4, rtol=1e-12)
    np.testing.assert_allclose(out.y_mean.values, acc_y / 4, rtol=1e-12)
