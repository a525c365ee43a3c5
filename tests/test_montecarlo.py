import json
from dataclasses import replace
from math import factorial

import numpy as np
import pytest
from scipy import stats

from infosched import cdkf, montecarlo, riccati
from infosched.cdkf import ArrivalRecord, rollout_covariance
from infosched.model import (
    Instance,
    InstanceSpec,
    ResourcePolytope,
    Schedule,
    Sensor,
    SystemModel,
    ValidationError,
    WeightSpec,
    _generator,
    random_instance,
)
from infosched.montecarlo import (
    _run_costs,
    mc_mean_trajectories,
    mc_objective,
    run_seed,
    sample_arrivals,
    save_mc_report,
)
from infosched.riccati import (
    PositiveDefinitenessError,
    flow_cov,
    pathwise_cost,
    time_grid,
)

from conftest import (
    arrivals, break_the_walk, make_scalar_instance, mixed_instance,
    random_spd, rng_for,
)


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


def _double_loop_arrivals(schedule, seed):
    # the documented draw order, written out: every sensor, then every
    # interval, one Poisson count then that many uniforms; zero rates skip
    rng = _generator(seed)
    delta = schedule.delta
    times, sensors = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    for j in range(schedule.M):
        for k in range(schedule.N):
            lam = schedule.rates[k, j]
            count = int(rng.poisson(lam * delta)) if lam > 0.0 else 0
            times.append(k * delta + delta * rng.random(count))
            sensors.append(np.full(count, j, dtype=np.int64))
    return ArrivalRecord(times=np.concatenate(times),
                         sensors=np.concatenate(sensors))


def test_sample_arrivals_matches_the_documented_double_loop():
    rates = rng_for(17).uniform(0.0, 3.0, size=(6, 5))
    rates[:, [0, 3]] = 0.0                 # idle sensors
    rates[[0, 4], 2] = 0.0                 # idle intervals of a live sensor
    sched = Schedule(N=6, T=2.0, rates=rates)
    for seed in (0, 7, run_seed(3, 2)):
        got = sample_arrivals(sched, seed)
        want = _double_loop_arrivals(sched, seed)
        assert got.n_events > 0
        np.testing.assert_array_equal(got.times, want.times)
        np.testing.assert_array_equal(got.sensors, want.sensors)


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


def test_mc_objective_independent_of_batch_composition():
    # run r's cost depends on its own stream alone: the same in a batch of
    # 6 and of 9, and on a repeated call
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=4, T=1.0))
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 2), 1.0))
    six = mc_objective(inst, sched, n_runs=6, n_eval=30, seed=9)
    nine = mc_objective(inst, sched, n_runs=9, n_eval=30, seed=9)
    again = mc_objective(inst, sched, n_runs=6, n_eval=30, seed=9)
    np.testing.assert_array_equal(six.per_run_costs, nine.per_run_costs[:6])
    np.testing.assert_array_equal(six.per_run_costs, again.per_run_costs)
    assert (six.mean, six.std) == (again.mean, again.std)


def test_mc_objective_takes_every_map_from_one_family(monkeypatch):
    # the walk's maps are polynomials of one family, never an exponential
    calls = []
    real = riccati.expm

    def counted(X):
        calls.append(X.shape)
        return real(X)

    monkeypatch.setattr(riccati, "expm", counted)
    inst = random_instance(InstanceSpec(n=3, M=3, p=1, seed=6, T=1.0))
    sched = Schedule(N=3, T=1.0, rates=np.full((3, 3), 4.0))
    est = mc_objective(inst, sched, n_runs=100, n_eval=30, seed=2)
    assert est.n_runs == 100 and np.isfinite(est.mean)
    assert calls == []


def test_mc_objective_of_a_terminal_weight_ignores_n_eval_on_a_stiff_a():
    # with W_T alone the cost is <W_T, P(T)>, whatever the grid; a coarse
    # grid makes long cuts, which a fast stable mode must not spoil
    rng = rng_for(60)
    A = np.diag([-60.0, -1.0, 0.5]) + 0.3 * rng.normal(size=(3, 3))
    system = SystemModel(n=3, A=A, Q=random_spd(rng, 3), m0=np.zeros(3),
                         P0=np.eye(3), T=3.0)
    sensors = tuple(Sensor(H=rng.normal(size=(1, 3)), R=np.eye(1))
                    for _ in range(2))
    inst = Instance(system=system, sensors=sensors,
                    polytope=ResourcePolytope(C=np.ones((1, 2)),
                                              b=np.array([2.0])),
                    weights=WeightSpec(W_stages=None, W_T=np.eye(3)))
    sched = Schedule(N=3, T=3.0, rates=np.ones((3, 2)))
    fine = mc_objective(inst, sched, n_runs=50, n_eval=300, seed=0).mean
    for n_eval in (3, 30):
        coarse = mc_objective(inst, sched, n_runs=50, n_eval=n_eval, seed=0)
        assert abs(coarse.mean - fine) <= 1e-12 * fine


def test_mc_mean_trajectories_independent_of_batch_composition():
    # the paths behind the means, walked in another batch (reversed, with
    # runs of another seed between), give the same statistics bit for bit
    inst = mixed_instance(4, T=1.0)
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 5), 1.0))
    out = mc_mean_trajectories(inst, sched, n_runs=6, n_eval=30, seed=9)
    records = [sample_arrivals(sched, run_seed(9, r)) for r in range(6)]
    others = [sample_arrivals(sched, run_seed(10, r)) for r in range(3)]
    batch = records[::-1][:3] + others + records[::-1][3:]
    paths = np.empty((9, 31, 4, 4))
    costs = _run_costs(inst, batch, time_grid(inst.T, 30), paths)
    keep = [8, 7, 6, 2, 1, 0]          # batch positions of runs 0..5
    np.testing.assert_array_equal(paths[keep].mean(axis=0),
                                  out.p_mean.values)
    y = np.linalg.inv(paths[keep])
    y = 0.5 * (y + y.transpose(0, 1, 3, 2))
    np.testing.assert_array_equal(y.mean(axis=0), out.y_mean.values)
    np.testing.assert_array_equal(
        np.trace(paths[keep], axis1=2, axis2=3).std(axis=0, ddof=1)
        / np.sqrt(6), out.p_trace_stderr)
    np.testing.assert_array_equal(costs[keep], out.objective.per_run_costs)


def _batch_records(inst, grid):
    # a run with no arrivals, one with coincident arrivals (p = 1 and p = 2
    # sensors at one instant), one on a grid node, and runs of many arrivals
    rng = rng_for(31)
    many = [ArrivalRecord(times=rng.uniform(0.0, inst.T, size=k),
                          sensors=rng.integers(0, inst.M, size=k))
            for k in (25, 40, 12)]
    mixed = arrivals(
        [(0.0, 1), (0.31, 3), (0.31, 0), (0.31, 1), (grid[4], 2),
         (grid[4], 3), (0.77, 4), (inst.T, 1)])
    empty = arrivals([])
    return [mixed, empty, many[0]], many[1:]


def test_batched_walk_paths_independent_of_batch():
    inst = mixed_instance(12, T=1.0)
    n_eval = 10
    grid = time_grid(inst.T, n_eval)
    runs, extra = _batch_records(inst, grid)
    three = np.empty((3, n_eval + 1, 4, 4))
    costs3 = _run_costs(inst, runs, grid, three)
    seven = np.empty((7, n_eval + 1, 4, 4))
    order = [extra[0], runs[2], runs[1], extra[1], runs[0], runs[2], runs[1]]
    costs7 = _run_costs(inst, order, grid, seven)
    for r, at in enumerate(([4], [2, 6], [1, 5])):
        single = rollout_covariance(inst, runs[r], n_eval)
        np.testing.assert_array_equal(three[r], single.values)
        for i in at:
            np.testing.assert_array_equal(seven[i], three[r])
            assert costs7[i] == costs3[r]
        want = pathwise_cost(single, inst.weights, inst.T)
        assert abs(costs3[r] - want) <= 1e-12 * abs(want)
    # the nodes saw the arrivals: at T the busy run sits below the idle one
    assert np.trace(three[0][-1]) < np.trace(three[1][-1])
    # one run has more rounds than another: the idle run records all its
    # nodes in round 0 and then sits out while the busy run walks on
    rng = rng_for(47)
    k = 14
    busy = ArrivalRecord(times=rng.uniform(0.0, inst.T, size=k),
                         sensors=rng.integers(0, inst.M, size=k))
    pair = [arrivals([]), busy]
    rounds = [runs for runs, _, _ in cdkf._filter_walk(inst, pair, grid)]
    assert len(rounds) > 3 and 0 in rounds[0]
    assert all(0 not in runs and 1 in runs for runs in rounds[1:])
    two = np.empty((2, n_eval + 1, 4, 4))
    costs2 = _run_costs(inst, pair, grid, two)
    for r, rec in enumerate(pair):
        np.testing.assert_array_equal(
            two[r], rollout_covariance(inst, rec, n_eval).values)
        assert costs2[r] == _run_costs(inst, [rec], grid)[0]
    np.testing.assert_array_equal(two[0], three[1])
    assert costs2[0] == costs3[1]


def _segment_oracle(inst, record, grid):
    """The nodes of one run, one segment at a time: the family's map of each
    segment between consecutive stops, then jump_cov at an arrival (before
    the node at its instant, coincident arrivals by sensor)."""
    sys = inst.system
    family = riccati.lyapunov_maps(sys.A, sys.Q, np.diff(grid).max())
    stops = sorted([(t, 0, j) for t, j in zip(record.times, record.sensors)]
                   + [(t, 1, i) for i, t in enumerate(grid)])
    P, prev, nodes = sys.P0, 0.0, np.empty((len(grid), sys.n, sys.n))
    for t, at_node, k in stops:
        phi, w = family([t - prev])
        P, prev = phi[0] @ P @ phi[0].T + w[0], t
        if at_node:
            nodes[k] = P
        else:
            P = riccati.jump_cov(P, inst.sensors[k])
    return nodes


@pytest.mark.parametrize("shift", [0.0, 3.0, -400.0],
                         ids=["stable", "unstable", "stiff"])
def test_batched_walk_matches_a_segment_by_segment_oracle(shift):
    # arrivals at t = 0, at T, coincident, on a node, none and many, from
    # p = 1 and p = 2 sensors, in one batch: each run's nodes as composed
    # one segment at a time
    inst = mixed_instance(12, T=1.0)
    sys = inst.system
    inst = replace(inst, system=replace(sys, A=sys.A + shift * np.eye(4)))
    grid = time_grid(inst.T, 10)
    records = sum(_batch_records(inst, grid), [])
    paths = np.full((len(records), len(grid), 4, 4), np.nan)
    for runs, nodes, P in cdkf._filter_walk(inst, records, grid):
        paths[runs, nodes] = P
    for path, record in zip(paths, records):
        for got, want in zip(path, _segment_oracle(inst, record, grid)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("nodes", [1, 5])
def test_walk_windows_bound_the_nodes_held_at_once(monkeypatch, nodes):
    # a round's nodes go in time-ordered windows of at most
    # WINDOW_ENTRIES / n^2 nodes, or of one grid index: idle runs, whose
    # round 0 holds every node, are walked a window at a time, and no path
    # or cost depends on the window size, bit for bit
    inst = mixed_instance(12, T=1.0)
    grid = time_grid(inst.T, 10)
    records = sum(_batch_records(inst, grid), []) + [arrivals([])] * 4
    whole = np.empty((len(records), len(grid), 4, 4))
    costs = _run_costs(inst, records, grid, whole)
    rounds = len(list(cdkf._filter_walk(inst, records, grid)))
    monkeypatch.setattr(cdkf, "WINDOW_ENTRIES", 16 * nodes)
    windows = list(cdkf._filter_walk(inst, records, grid))
    assert len(windows) > rounds
    seen = [[] for _ in records]
    paths = np.full_like(whole, np.nan)
    for runs, at, P in windows:
        assert len(runs) <= nodes or np.all(at == at[0])
        paths[runs, at] = P
        for r, i in zip(runs, at):
            seen[r].append(i)
    # every run's nodes once each, in time order
    assert all(s == list(range(len(grid))) for s in seen)
    np.testing.assert_array_equal(paths, whole)
    np.testing.assert_array_equal(_run_costs(inst, records, grid), costs)


def test_batched_walk_costs_match_pathwise_cost_with_running_weights():
    inst = random_instance(InstanceSpec(n=3, M=4, p=2, seed=5, T=1.5))
    W = rng_for(2).normal(size=(3, 3, 3))
    inst = replace(inst, weights=WeightSpec(W_stages=W @ W.transpose(0, 2, 1),
                                            W_T=np.eye(3)))
    sched = Schedule(N=3, T=1.5, rates=np.full((3, 4), 2.0))
    records = [sample_arrivals(sched, run_seed(3, r)) for r in range(8)]
    paths = np.empty((8, 21, 3, 3))
    costs = _run_costs(inst, records, time_grid(inst.T, 20), paths)
    for r, rec in enumerate(records):
        traj = rollout_covariance(inst, rec, 20)
        np.testing.assert_array_equal(paths[r], traj.values)
        want = pathwise_cost(traj, inst.weights, inst.T)
        assert abs(costs[r] - want) <= 1e-12 * abs(want)


def test_batched_walk_names_the_run_that_lost_pd(monkeypatch):
    # only run 1 of the batch has an arrival; gain factors (P, 2 I) give
    # g = 2 P, which leaves P - g = -P there, and the error names that run,
    # its sensor and t
    inst = make_scalar_instance(a=-0.5, q=1.0, T=1.0)
    monkeypatch.setattr(cdkf, "stacked_gains",
                        lambda P, H, R: (P, 2.0 * np.eye(P.shape[-1])))
    empty = arrivals([])
    records = [empty, arrivals([(0.4, 0)]), empty]
    with pytest.raises(PositiveDefinitenessError,
                       match="arrival from sensor 0 at t=0.4 in run 1"):
        _run_costs(inst, records, time_grid(inst.T, 4))


@pytest.mark.parametrize("breaks, events, message", [
    (["arrival"], [[], [(0.93, 0)], []],
     "arrival from sensor 0 at t=0.93 in run 1"),
    (["node", "arrival"], [[], [(0.72, 0)]], "at node t=0.7 in run 0"),
    (["node", "singular"], [[], [(0.72, 0)]], "at node t=0.7 in run 0"),
], ids=["arrival-in-a-later-block", "node-then-arrival",
        "node-then-singular"])
def test_batched_walk_reports_the_first_loss_in_walk_order(
        monkeypatch, breaks, events, message):
    # on a grid of 20 intervals, every run loses node 14 (t = 0.7) under
    # "node", and run 1's arrival at 0.72 ends round 0 after it: the
    # earliest loss of the first failing round is named, not a later
    # arrival of another run or a failure after it; "arrival" alone breaks
    # only run 1's jump at 0.93
    grid = time_grid(1.0, 20)
    assert grid[13] < np.log(2.0) < grid[14] < 0.72 < grid[15]
    inst = make_scalar_instance(a=-0.5, q=1.0, T=1.0)
    for how in breaks:
        break_the_walk(monkeypatch, how)
    with pytest.raises(PositiveDefinitenessError, match=message):
        _run_costs(inst, [arrivals(e) for e in events], time_grid(inst.T, 20))


def test_batched_walk_reports_the_first_failing_round(monkeypatch):
    # under "node", run 1 (no arrivals) loses node 14 (t = 0.7) in round 0;
    # run 0's jump at 0.3 brings its loss forward to node 12 (t = 0.6) of
    # its round 1: the first failing round is reported, not the earliest
    # loss in time
    inst = make_scalar_instance(a=-0.5, q=1.0, T=1.0)
    grid = time_grid(inst.T, 20)
    break_the_walk(monkeypatch, "node")
    records = [arrivals([(0.3, 0)]), arrivals([])]
    with pytest.raises(PositiveDefinitenessError,
                       match="at node t=0.7 in run 1"):
        _run_costs(inst, records, grid)
    with pytest.raises(PositiveDefinitenessError,
                       match="at node t=0.6 in run 0"):
        _run_costs(inst, records[:1], grid)
    # at one instant a jump comes before a node of an earlier run: run 1's
    # arrival on node 14 ends its round 0 there
    break_the_walk(monkeypatch, "arrival")
    records = [arrivals([]), arrivals([(grid[14], 0)])]
    with pytest.raises(PositiveDefinitenessError,
                       match="after an arrival from sensor 0 at t=0.7 in "
                             "run 1"):
        _run_costs(inst, records, grid)


@pytest.mark.parametrize("entries", [cdkf.WINDOW_ENTRIES, 1],
                         ids=["rounds", "one-node-windows"])
@pytest.mark.parametrize("breaks, events, message", [
    (["node", "arrival"], [[], [(0.62, 0)]],
     "after an arrival from sensor 0 at t=0.62 in run 1"),
    (["node", "arrival"], [[], [(0.72, 0)]], "at node t=0.7 in run 0"),
    (["node", "arrival"], [[], [(0.8, 0)]], "at node t=0.7 in run 0"),
    (["node"], [[(0.3, 0)], []], "at node t=0.7 in run 1"),
], ids=["jump-in-an-earlier-window", "jump-in-the-node's-window",
        "jump-in-a-later-window", "later-round"])
def test_windows_keep_the_first_loss_rule(monkeypatch, entries, breaks,
                                          events, message):
    # under "node" every run without an earlier arrival loses node 14
    # (t = 0.7) in round 0; under "arrival" every jump loses.  Whatever
    # window a loss falls in, the first failing round is reported and
    # within it the earliest loss in time: a jump at 0.62 before run 0's
    # node, run 0's node before a jump at 0.72 or 0.8 of run 1
    inst = make_scalar_instance(a=-0.5, q=1.0, T=1.0)
    monkeypatch.setattr(cdkf, "WINDOW_ENTRIES", entries)
    for how in breaks:
        break_the_walk(monkeypatch, how)
    with pytest.raises(PositiveDefinitenessError, match=message):
        _run_costs(inst, [arrivals(e) for e in events], time_grid(inst.T, 20))


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


@pytest.mark.parametrize("estimate", [mc_objective, mc_mean_trajectories])
def test_bad_n_eval_is_rejected_before_any_sampling(monkeypatch, estimate):
    calls = []
    real = montecarlo.sample_arrivals

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(montecarlo, "sample_arrivals", counted)
    inst = make_scalar_instance(T=1.0)
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 1), 3.0))
    with pytest.raises(ValidationError, match="n_eval must be >= 1, got 0"):
        estimate(inst, sched, n_runs=50, n_eval=0)
    assert calls == []


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
    det = rollout_covariance(inst, arrivals([]), n_eval=20)
    np.testing.assert_array_equal(out.p_mean.values, det.values)
    assert np.all(out.p_trace_stderr == 0.0)


@pytest.mark.parametrize("estimate", [mc_objective, mc_mean_trajectories])
def test_identical_runs_give_that_run_and_zero_spread(estimate):
    # a zero schedule makes every run the same; the mean of these three
    # equal costs would be an ulp off (fl(3 a) / 3 != a)
    inst = random_instance(InstanceSpec(n=2, M=1, p=1, seed=6, T=1.0))
    sched = Schedule(N=2, T=1.0, rates=np.zeros((2, 1)))
    out = estimate(inst, sched, n_runs=3, n_eval=20)
    est = getattr(out, "objective", out)
    assert est.mean == est.per_run_costs[0]
    assert est.std == 0.0 and est.stderr == 0.0
    if estimate is mc_mean_trajectories:
        assert np.all(out.y_trace_stderr == 0.0)


def test_mc_mean_trajectories_single_run():
    inst = random_instance(InstanceSpec(n=2, M=2, p=1, seed=2, T=1.0))
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 2), 1.0))
    out = mc_mean_trajectories(inst, sched, n_runs=1, n_eval=15, seed=5)
    record = sample_arrivals(sched, run_seed(5, 0))
    single = rollout_covariance(inst, record, n_eval=15)
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
