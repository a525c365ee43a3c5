import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from infosched import bounds, cdkf, montecarlo, surrogate
from infosched.bounds import (
    objective_bracket,
    scale_sensor_noise,
    snr_sweep,
    trajectory_bracket,
    write_snr_csv,
)
from infosched.model import (
    InstanceSpec,
    ResourcePolytope,
    Schedule,
    Sensor,
    ValidationError,
    _dump_json,
    random_instance,
)
from infosched.montecarlo import mc_objective
from infosched.optimize import ShootingProblem, SolveOptions, solve
from infosched.riccati import PositiveDefinitenessError, flow_cov

from conftest import break_the_walk, make_scalar_instance, rng_for

# ln p - 1/p = -3 root: terminal variance of the covariance-side surrogate
# for the static unit-sensor problem at rate 2 over a unit horizon
COV_SURROGATE_ROOT = 0.452910851609152


def test_zero_rate_bracket_degenerates_to_open_loop():
    inst = make_scalar_instance(a=-0.5, q=0.4, p0=2.0)
    sched = Schedule(N=3, T=1.0, rates=np.zeros((3, 1)))
    rep = objective_bracket(inst, sched, n_runs=5, n_eval=50,
                            surrogate_substeps=10, seed=1)
    assert rep.mc.std == 0.0
    assert rep.contained
    scale = abs(rep.mc.mean)
    assert abs(rep.j_lower - rep.mc.mean) <= 1e-7 * scale
    assert abs(rep.j_upper - rep.mc.mean) <= 1e-7 * scale


def test_scalar_poisson_bracket_matches_closed_forms():
    # static unit-sensor problem, rate 2: lower bound 1/(1 + 2T) = 1/3,
    # exact mean E[1/(1+K)] = (1 - e^-2)/2 with K ~ Poisson(2), upper bound
    # the implicit-equation root
    inst = make_scalar_instance()
    sched = Schedule(N=1, T=1.0, rates=np.array([[2.0]]))
    rep = objective_bracket(inst, sched, n_runs=800, n_eval=25,
                            surrogate_substeps=50, seed=3)
    assert abs(rep.j_lower - 1.0 / 3.0) <= 1e-12
    assert abs(rep.j_upper - COV_SURROGATE_ROOT) <= 1e-6
    exact = (1.0 - math.exp(-2.0)) / 2.0
    assert abs(rep.mc.mean - exact) <= 3.0 * rep.mc.stderr
    assert rep.contained
    assert rep.trajectory_contained is None


def test_trajectory_bracket_zero_rates_is_tight():
    inst = make_scalar_instance(a=-0.3, q=0.5, p0=1.5)
    sched = Schedule(N=2, T=1.0, rates=np.zeros((2, 1)))
    rep = trajectory_bracket(inst, sched, n_runs=4, n_eval=40,
                             surrogate_substeps=10, seed=2)
    assert rep.mc.std == 0.0
    assert rep.contained and rep.trajectory_contained
    assert rep.times.shape == (41,)
    assert set(rep.margins) == {
        "cov_minus_info", "mc_minus_info", "cov_minus_mc", "info_minus_mc_y",
    }
    for key, vals in rep.margins.items():
        tol = rep.margin_tol[key]
        assert vals.shape == (41,)
        # with no arrivals every trajectory is the same noise-free flow
        assert np.all(np.abs(vals) <= tol), key


def test_trajectory_bracket_random_schedule_contained():
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=9, T=1.5,
                                        budget=3.0))
    rng = rng_for(21)
    rates = rng.uniform(0.0, 1.5, size=(4, 2))
    sched = Schedule(N=4, T=1.5, rates=rates)
    rep = trajectory_bracket(inst, sched, n_runs=60, n_eval=60,
                             surrogate_substeps=10, seed=4)
    assert rep.contained
    assert rep.trajectory_contained
    # the surrogate sandwich itself is deterministic
    assert np.all(rep.margins["cov_minus_info"]
                  >= -rep.margin_tol["cov_minus_info"])
    assert rep.j_lower <= rep.j_upper + 1e-9 * rep.trace_p0


def test_trajectory_bracket_estimate_equals_mc_objective():
    # the bracket takes its estimate from the runs behind its mean paths;
    # it must be the estimate mc_objective reports for the same seed
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=9, T=1.5,
                                        budget=3.0))
    sched = Schedule(N=3, T=1.5, rates=np.full((3, 2), 1.0))
    kw = dict(n_runs=6, n_eval=30, seed=5)
    rep = trajectory_bracket(inst, sched, surrogate_substeps=4, **kw)
    est = mc_objective(inst, sched, **kw)
    np.testing.assert_array_equal(rep.mc.per_run_costs, est.per_run_costs)
    assert (rep.mc.mean, rep.mc.std, rep.mc.stderr, rep.mc.n_runs) == \
        (est.mean, est.std, est.stderr, est.n_runs)


def _with_idle_sensors(inst, count):
    """inst with count more sensors, H = 0 and R = I, in its budget row."""
    p, n = inst.H.shape[1:]
    idle = tuple(Sensor(H=np.zeros((p, n)), R=np.eye(p)) for _ in range(count))
    C = np.hstack([inst.polytope.C, np.ones((1, count))])
    return replace(inst, sensors=inst.sensors + idle,
                   polytope=ResourcePolytope(C=C, b=inst.polytope.b))


@pytest.mark.parametrize("p", [1, 2])
def test_idle_padded_sensors_change_no_result(p):
    # a sensor that observes nothing, at rate zero, draws no arrival and adds
    # no information: the Monte Carlo costs and the cov bound are the same
    # floats, the info bound sums its zero increments
    inst = random_instance(InstanceSpec(n=3, M=4, p=p, seed=21))
    padded = _with_idle_sensors(inst, 3)
    rates = rng_for(22).uniform(0.0, 1.5, (5, 4))
    scheds = [Schedule(N=5, T=inst.T, rates=rates),
              Schedule(N=5, T=inst.T, rates=np.pad(rates, ((0, 0), (0, 3))))]
    reps = [objective_bracket(i, s, n_runs=20, n_eval=60, seed=4)
            for i, s in zip((inst, padded), scheds)]
    assert np.array_equal(reps[0].mc.per_run_costs, reps[1].mc.per_run_costs)
    assert reps[0].j_upper == reps[1].j_upper
    assert abs(reps[0].j_lower - reps[1].j_lower) <= 1e-14 * reps[0].j_lower
    # the design spends nothing on them
    got = [solve(ShootingProblem(i, N=4), SolveOptions(grad_tol=1e-8))
           for i in (inst, padded)]
    assert all(r.converged for r in got)
    assert abs(got[1].objective - got[0].objective) <= \
        1e-7 * abs(got[0].objective)
    assert got[1].schedule.rates[:, 4:].max() <= 1e-8


def test_idle_padded_sensors_change_no_result_at_scale():
    # the same padding with 1996 idle sensors, M = 2000: the pool is
    # checked and stepped as stacks, so the padded solve and bracket stay
    # fast (0.3 s and 0.03 s on a 2-core host), every idle rate stays
    # exactly zero, and the objective moves by roundoff (7.8e-12 measured)
    inst = random_instance(InstanceSpec(n=3, M=4, p=1, seed=21))
    padded = _with_idle_sensors(inst, 1996)
    assert padded.M == 2000
    got = [solve(ShootingProblem(i, N=4), SolveOptions(grad_tol=1e-8))
           for i in (inst, padded)]
    assert all(r.converged for r in got)
    assert abs(got[1].objective - got[0].objective) <= \
        1e-9 * abs(got[0].objective)
    assert np.all(got[1].schedule.rates[:, 4:] == 0.0)
    rates = rng_for(22).uniform(0.0, 1.5, (5, 4))
    scheds = [Schedule(N=5, T=inst.T, rates=rates),
              Schedule(N=5, T=inst.T, rates=np.pad(rates, ((0, 0), (0, 1996))))]
    reps = [objective_bracket(i, s, n_runs=20, n_eval=60, seed=4)
            for i, s in zip((inst, padded), scheds)]
    assert np.array_equal(reps[0].mc.per_run_costs, reps[1].mc.per_run_costs)
    assert reps[0].j_upper == reps[1].j_upper
    assert abs(reps[0].j_lower - reps[1].j_lower) <= 1e-14 * reps[0].j_lower


def test_scale_sensor_noise_rescales_information():
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=6))
    scaled = scale_sensor_noise(inst, 2.0)
    for orig, new in zip(inst.sensors, scaled.sensors):
        assert np.array_equal(new.H, orig.H)
        assert np.allclose(new.R, 2.0 * orig.R)
        assert np.allclose(new.S, 0.5 * orig.S, rtol=1e-12)
    assert scaled.system is inst.system


@pytest.mark.parametrize("r_scale, error", [
    (True, TypeError), ("3", TypeError), (math.nan, ValidationError),
    (math.inf, ValidationError), (-1.0, ValidationError),
    (0.0, ValidationError),
], ids=["bool", "string", "nan", "inf", "negative", "zero"])
def test_scale_sensor_noise_refuses_a_bad_scale(monkeypatch, r_scale, error):
    # refused before the instance is rebuilt, naming r_scale, not the data
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=6))
    built = []
    monkeypatch.setattr(bounds, "Sensor", lambda **kw: built.append(kw))
    with pytest.raises(error, match="^r_scale must be "):
        scale_sensor_noise(inst, r_scale)
    assert built == []


def test_snr_sweep_contained_and_width_shrinks():
    inst = make_scalar_instance(a=-0.2, q=0.3, p0=2.0, budget=4.0)
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 1), 2.0))
    sweep = snr_sweep(inst, sched, r_scales=np.array([0.1, 1.0, 10.0]),
                      n_runs=150, n_eval=40, surrogate_substeps=20, seed=5)
    assert [r for r, _ in sweep] == [0.1, 1.0, 10.0]
    widths = []
    for _, rep in sweep:
        assert rep.contained
        widths.append(rep.normalized_width)
    assert widths[0] > widths[-1]


def test_uninformative_limit_collapses_the_bracket():
    inst = make_scalar_instance(a=-0.4, q=0.5, p0=2.0)
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 1), 3.0))
    rep = objective_bracket(scale_sensor_noise(inst, 1e12), sched,
                            n_runs=20, n_eval=40,
                            surrogate_substeps=20, seed=7)
    open_loop = flow_cov(np.array([[2.0]]), inst.system.A, inst.system.Q,
                         1.0, substeps=400)[0, 0]
    assert rep.j_upper - rep.j_lower <= 1e-5 * open_loop
    assert abs(rep.mc.mean - open_loop) <= 1e-5 * open_loop
    assert rep.contained


def test_containment_survives_joint_state_scaling():
    # scaling P0 and Q together (R fixed) changes the SNR but not the
    # validity of the sandwich
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 1), 1.5))
    for alpha in (1.0, 10.0):
        inst = make_scalar_instance(a=-0.3, q=0.4 * alpha, p0=2.0 * alpha)
        rep = objective_bracket(inst, sched, n_runs=120, n_eval=30,
                                surrogate_substeps=20, seed=8)
        assert rep.contained, alpha
        assert rep.trace_p0 == 2.0 * alpha


def test_write_snr_csv_round_trips(tmp_path):
    inst = make_scalar_instance(a=-0.2, q=0.3)
    sched = Schedule(N=1, T=1.0, rates=np.array([[1.0]]))
    sweep = snr_sweep(inst, sched, r_scales=np.array([0.5, 2.0]),
                      n_runs=10, n_eval=20, surrogate_substeps=10, seed=9)
    path = tmp_path / "sweep.csv"
    write_snr_csv(path, sweep)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r_scale", "J_lower", "mc_mean", "mc_stderr",
                       "J_upper", "norm_lower_dev", "norm_upper_dev",
                       "contained"]
    assert len(rows) == 3
    for row, (r, rep) in zip(rows[1:], sweep):
        assert float(row[0]) == r
        assert float(row[1]) == rep.j_lower
        assert float(row[2]) == rep.mc.mean
        assert float(row[3]) == rep.mc.stderr > 0.0
        assert float(row[4]) == rep.j_upper
        assert row[7] in {"0", "1"}


def test_bracket_report_serialization(tmp_path):
    inst = make_scalar_instance(a=-0.3, q=0.2)
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 1), 1.0))
    rep = trajectory_bracket(inst, sched, n_runs=8, n_eval=20,
                             surrogate_substeps=10, seed=10)
    out = rep.to_dict()
    assert out["normalized"]["width"] == pytest.approx(
        (rep.j_upper - rep.j_lower) / rep.trace_p0, rel=0, abs=0)
    assert out["mc"]["n_runs"] == 8
    assert len(out["times"]) == 21
    assert all(len(v) == 21 for v in out["margins"].values())
    assert isinstance(out["trajectory_contained"], bool)
    path = tmp_path / "report.json"
    _dump_json(path, rep.to_dict())
    with open(path) as fh:
        loaded = json.load(fh)
    assert loaded["j_lower"] == rep.j_lower
    assert loaded["margins"].keys() == rep.margins.keys()


@pytest.mark.parametrize("bracket", [objective_bracket, trajectory_bracket])
@pytest.mark.parametrize("bad", [
    {"seed": -1}, {"n_runs": 0}, {"n_eval": 0}, {"surrogate_substeps": 0},
], ids=["seed", "n_runs", "n_eval", "surrogate_substeps"])
def test_bracket_rejects_bad_arguments_before_any_work(monkeypatch, bracket,
                                                       bad):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    # the Monte Carlo binds the walk and the sampler by name
    for module, name in ((surrogate, "_integrate_surrogate"),
                         (cdkf, "_filter_walk"),
                         (montecarlo, "_filter_walk"),
                         (montecarlo, "sample_arrivals")):
        monkeypatch.setattr(module, name, no_work)
    inst = make_scalar_instance()
    sched = Schedule(N=2, T=1.0, rates=np.ones((2, 1)))
    kw = dict(n_runs=4, n_eval=10, surrogate_substeps=4, seed=0) | bad
    with pytest.raises(ValidationError, match=next(iter(bad))):
        bracket(inst, sched, **kw)


@pytest.mark.parametrize("bracket", [objective_bracket, trajectory_bracket])
def test_a_surrogate_that_refuses_its_step_costs_no_monte_carlo_work(
        monkeypatch, bracket):
    # R = 1e-3 at rate 200 puts the cov surrogate's step of 0.025 past RK4's
    # limit (Q = 0 keeps the info surrogate linear, and inside it), and
    # every broken gain update of the walk would fail too: both
    # brackets integrate their surrogates before they sample, so the
    # surrogate's refusal is the error, and no arrival is drawn
    inst = make_scalar_instance(a=-0.5, r=1e-3, budget=200.0)
    sched = Schedule(N=4, T=1.0, rates=np.full((4, 1), 200.0))
    kw = dict(n_runs=3, n_eval=20, seed=0)
    break_the_walk(monkeypatch, "arrival")
    with pytest.raises(PositiveDefinitenessError):
        mc_objective(inst, sched, **kw)
    calls = []
    real = montecarlo.sample_arrivals
    monkeypatch.setattr(montecarlo, "sample_arrivals",
                        lambda *args: calls.append(args) or real(*args))
    with pytest.raises(PositiveDefinitenessError,
                       match=r"cov surrogate step 2\.500e-02 is past RK4's "
                             r"stability limit"):
        bracket(inst, sched, surrogate_substeps=10, **kw)
    assert calls == []
