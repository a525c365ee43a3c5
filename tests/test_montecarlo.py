import json
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import factorial
from statistics import stdev

import numpy as np
import pytest
from scipy import stats

from infosched import cdkf, montecarlo, riccati
from infosched.bounds import trajectory_bracket
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
    _dump_json,
    _generator,
    random_instance,
)
from infosched.montecarlo import (
    _run_costs,
    mc_mean_trajectories,
    mc_objective,
    run_seed,
    sample_arrivals,
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
    system = SystemModel(n=3, A=A, Q=random_spd(rng, 3), P0=np.eye(3), T=3.0)
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


def _full_walk(inst, records, grid):
    """Every run's path from the full walk, which forms and checks every
    node, and each run's cost reduced from it node by node in time order,
    as the walk's costs are: the oracle of the walks that skip nodes."""
    paths = np.full((len(records), len(grid), inst.n, inst.n), np.nan)
    for runs, nodes, P in cdkf._filter_walk(inst, records, grid):
        paths[runs, nodes] = P
    weights = riccati.node_weights(grid, inst.weights)
    costs = np.zeros(len(records))
    for i in np.flatnonzero(riccati.read_nodes(weights)):
        costs += (weights[i] * paths[:, i]).reshape(len(records), -1).sum(
            axis=1)
    return paths, costs


def test_mc_mean_trajectories_independent_of_batch_composition():
    # the paths behind the means, walked in another batch (reversed, with
    # runs of another seed between), give the same statistics bit for bit
    inst = mixed_instance(4, T=1.0)
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 5), 1.0))
    out = mc_mean_trajectories(inst, sched, n_runs=6, n_eval=30, seed=9)
    records = [sample_arrivals(sched, run_seed(9, r)) for r in range(6)]
    others = [sample_arrivals(sched, run_seed(10, r)) for r in range(3)]
    batch = records[::-1][:3] + others + records[::-1][3:]
    grid = time_grid(inst.T, 30)
    paths, costs = _full_walk(inst, batch, grid)
    np.testing.assert_array_equal(_run_costs(inst, batch, grid), costs)
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
    three, costs3 = _full_walk(inst, runs, grid)
    order = [extra[0], runs[2], runs[1], extra[1], runs[0], runs[2], runs[1]]
    seven, costs7 = _full_walk(inst, order, grid)
    np.testing.assert_array_equal(_run_costs(inst, runs, grid), costs3)
    np.testing.assert_array_equal(_run_costs(inst, order, grid), costs7)
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
    two, costs2 = _full_walk(inst, pair, grid)
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
    whole, costs = _full_walk(inst, records, grid)
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
    grid = time_grid(inst.T, 20)
    # every node is weighted, so the walk of the costs forms every node
    assert riccati.read_nodes(riccati.node_weights(grid, inst.weights)).all()
    paths, _ = _full_walk(inst, records, grid)
    costs = _run_costs(inst, records, grid)
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
    # "node", and run 1's arrival at 0.72 comes after it: run 0's loss is
    # named, not run 1's later arrival or a failure after it; "arrival"
    # alone breaks only run 1's jump at 0.93
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
    # its round 1: the lowest failing run is reported, as it fails alone,
    # whatever round another run fails in
    inst = make_scalar_instance(a=-0.5, q=1.0, T=1.0)
    grid = time_grid(inst.T, 20)
    break_the_walk(monkeypatch, "node")
    records = [arrivals([(0.3, 0)]), arrivals([])]
    for batch in (records, records[:1]):
        with pytest.raises(PositiveDefinitenessError,
                           match="at node t=0.6 in run 0"):
            _run_costs(inst, batch, grid)
    with pytest.raises(PositiveDefinitenessError,
                       match="at node t=0.7 in run 0"):
        _run_costs(inst, records[::-1], grid)
    # at one instant a run's jump comes before its node: the arrival on
    # node 14 ends round 0 there, and node 14 is the jumped matrix
    break_the_walk(monkeypatch, "arrival")
    records = [arrivals([(grid[14], 0)]), arrivals([])]
    with pytest.raises(PositiveDefinitenessError,
                       match="after an arrival from sensor 0 at t=0.7 in "
                             "run 0"):
        _run_costs(inst, records, grid)


@pytest.mark.parametrize("entries", [cdkf.WINDOW_ENTRIES, 1],
                         ids=["rounds", "one-node-windows"])
@pytest.mark.parametrize("breaks, events, message", [
    (["node", "arrival"], [[], [(0.62, 0)]], "at node t=0.7 in run 0"),
    (["node", "arrival"], [[], [(0.72, 0)]], "at node t=0.7 in run 0"),
    (["node", "arrival"], [[], [(0.8, 0)]], "at node t=0.7 in run 0"),
    (["node"], [[(0.3, 0)], []], "at node t=0.6 in run 0"),
], ids=["jump-in-an-earlier-window", "jump-in-the-node's-window",
        "jump-in-a-later-window", "later-round"])
def test_windows_keep_the_first_loss_rule(monkeypatch, entries, breaks,
                                          events, message):
    # under "node" every run without an earlier arrival loses node 14
    # (t = 0.7) in round 0, and run 0's jump at 0.3 brings its loss forward
    # to t = 0.6; under "arrival" every jump loses.  Whatever window a loss
    # falls in, run 0's own first loss is reported, not run 1's jump at
    # 0.62, 0.72 or 0.8
    inst = make_scalar_instance(a=-0.5, q=1.0, T=1.0)
    monkeypatch.setattr(cdkf, "WINDOW_ENTRIES", entries)
    for how in breaks:
        break_the_walk(monkeypatch, how)
    with pytest.raises(PositiveDefinitenessError, match=message):
        _run_costs(inst, [arrivals(e) for e in events], time_grid(inst.T, 20))


def _zero_stage_weights(inst):
    """inst with running weights on stages 1 and 3 of 4 and all-zero
    stages 0 and 2, so the nodes inside those two are not read."""
    W = rng_for(5).normal(size=(4, inst.n, inst.n))
    W = W @ W.transpose(0, 2, 1)
    W[[0, 2]] = 0.0
    return replace(inst, weights=WeightSpec(W_stages=W, W_T=inst.weights.W_T))


READ_CASES = {
    "terminal": lambda: random_instance(
        InstanceSpec(n=3, M=4, p=1, seed=5, T=1.5)),
    "zero-stages": lambda: _zero_stage_weights(random_instance(
        InstanceSpec(n=3, M=4, p=2, seed=5, T=1.5))),
    "mixed-p": lambda: mixed_instance(12, T=1.5),
}


@pytest.mark.parametrize("case", READ_CASES)
def test_costs_form_only_the_read_nodes_bit_for_bit(case):
    # the walk of the costs forms only the weighted nodes and each gap's
    # last: every run's cost, and every node it forms, is the full walk's
    inst = READ_CASES[case]()
    sched = Schedule(N=3, T=1.5, rates=np.full((3, inst.M), 2.0))
    records = [sample_arrivals(sched, run_seed(3, r)) for r in range(8)]
    grid = time_grid(inst.T, 20)
    read = riccati.read_nodes(riccati.node_weights(grid, inst.weights))
    assert 0 < read.sum() < len(grid)
    paths, full = _full_walk(inst, records, grid)
    np.testing.assert_array_equal(_run_costs(inst, records, grid), full)
    formed = 0
    for runs, nodes, P in cdkf._filter_walk(inst, records, grid, read):
        np.testing.assert_array_equal(P, paths[runs, nodes])
        formed += len(nodes)
    gaps = sum(rec.n_events + 1 for rec in records)
    assert formed <= len(records) * read.sum() + gaps
    assert formed < len(records) * len(grid)


@pytest.mark.parametrize("entries", [cdkf.WINDOW_ENTRIES, 16],
                         ids=["rounds", "one-node-windows"])
def test_reduced_walk_costs_independent_of_batch(monkeypatch, entries):
    # with W_T alone, run r's cost is the same in a batch of 3 and of 7,
    # and the full walk's, whatever the windows
    inst = mixed_instance(12, T=1.0)
    grid = time_grid(inst.T, 10)
    runs, extra = _batch_records(inst, grid)
    order = [extra[0], runs[2], runs[1], extra[1], runs[0], runs[2], runs[1]]
    monkeypatch.setattr(cdkf, "WINDOW_ENTRIES", entries)
    costs3 = _run_costs(inst, runs, grid)
    costs7 = _run_costs(inst, order, grid)
    np.testing.assert_array_equal(
        costs7, _full_walk(inst, order, grid)[1])
    for r, at in enumerate(([4], [2, 6], [1, 5])):
        for i in at:
            assert costs7[i] == costs3[r]
    read = riccati.read_nodes(riccati.node_weights(grid, inst.weights))
    for _, at, _ in cdkf._filter_walk(inst, order, grid, read):
        assert len(at) <= max(1, entries // 16) or np.all(at == at[0])


@pytest.mark.parametrize("breaks", [["node"], ["node", "singular"],
                                    ["singular"]])
def test_reduced_walk_reports_the_first_loss_as_the_full_walk(monkeypatch,
                                                              breaks):
    # with W_T alone the walk reads node 20 (t = 1); under "node" run 0
    # loses node 14 (t = 0.7), which the reduced walk does not form, so
    # that walk's own failure is a later node (t = 1): the costs name run
    # 0's first loss, as run 0 walked alone reports it
    inst = make_scalar_instance(a=-0.5, q=1.0, T=1.0)
    grid = time_grid(inst.T, 20)
    for how in breaks:
        break_the_walk(monkeypatch, how)
    records = [arrivals([]), arrivals([(0.93, 0)])]
    errors = (PositiveDefinitenessError, np.linalg.LinAlgError)
    alone = cdkf._lowest_failure(inst, records, grid)
    for walk in (lambda: _full_walk(inst, records, grid),
                 lambda: _run_costs(inst, records, grid)):
        with pytest.raises(errors) as failed:
            walk()
        assert type(failed.value) is type(alone)
        assert str(failed.value) == str(alone)
    if "node" in breaks:
        assert "at node t=0.7 in run 0" in str(alone)
        read = riccati.read_nodes(riccati.node_weights(grid, inst.weights))
        with pytest.raises(PositiveDefinitenessError,
                           match="at node t=1 in run 0"):
            list(cdkf._walk(inst, records, grid, read))


def test_objective_walk_checks_one_node_per_gap_with_a_terminal_weight(
        monkeypatch):
    # the matrices the walk's require_pd sees: with W_T alone at most one
    # node per gap, the read node and the jumps; with running weights on
    # every stage, every node and the jumps
    checked = []
    real = cdkf.require_pd

    def spy(x, *args):
        checked.append(len(x))
        return real(x, *args)

    monkeypatch.setattr(cdkf, "require_pd", spy)
    inst = random_instance(InstanceSpec(n=2, M=3, p=1, seed=8, T=1.0))
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 3), 3.0))
    records = [sample_arrivals(sched, run_seed(4, r)) for r in range(6)]
    runs, events = len(records), sum(rec.n_events for rec in records)
    assert events > runs
    grid = time_grid(inst.T, 50)
    _run_costs(inst, records, grid)
    assert sum(checked) <= (events + runs) + runs + events < runs * len(grid)
    checked.clear()
    W = np.broadcast_to(np.eye(2), (2, 2, 2))
    _run_costs(replace(inst, weights=WeightSpec(W_stages=W,
                                                W_T=np.zeros((2, 2)))),
               records, grid)
    assert sum(checked) == runs * len(grid) + events


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
    _dump_json(path, est.to_dict())
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


@pytest.mark.parametrize("rate", [0.0, 1.0], ids=["zero", "positive"])
def test_mean_paths_are_the_stack_reductions_bit_for_bit(rate):
    # each run's information path is inverted and added in run order, the
    # sum mean(axis=0) takes over the stack of every run's inverse; with no
    # arrivals every run is run 0, and the zero-spread rule holds for both
    inst = mixed_instance(5, T=1.0)
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 5), rate))
    out = mc_mean_trajectories(inst, sched, n_runs=40, n_eval=20, seed=2)
    records = [sample_arrivals(sched, run_seed(2, r)) for r in range(40)]
    paths, _ = _full_walk(inst, records, time_grid(inst.T, 20))
    y = np.linalg.inv(paths)
    y = 0.5 * (y + y.transpose(0, 1, 3, 2))
    for stack, mean, stderr in ((paths, out.p_mean, out.p_trace_stderr),
                                (y, out.y_mean, out.y_trace_stderr)):
        if rate == 0.0:
            np.testing.assert_array_equal(mean.values, stack[0])
            assert np.all(stderr == 0.0)
        else:
            np.testing.assert_array_equal(mean.values, stack.mean(axis=0))
            np.testing.assert_array_equal(
                stderr, np.trace(stack, axis1=2, axis2=3).std(axis=0, ddof=1)
                / np.sqrt(40))


def _traced_peak_in_stacks(inst, sched, n_runs, n_eval):
    """Traced peak of mc_mean_trajectories in (runs, n_eval + 1, n, n)
    stacks, and the gaps with nodes the walk keeps per run."""
    kept = []
    real = cdkf._Gaps.windows

    def windows(gaps):
        kept.append(len(gaps.firsts) / n_runs)
        return real(gaps)

    stack = n_runs * (n_eval + 1) * inst.n**2 * 8
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cdkf._Gaps, "windows", windows)
        tracemalloc.start()
        try:
            mc_mean_trajectories(inst, sched, n_runs=n_runs, n_eval=n_eval,
                                 seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak / stack, kept[0]


def test_mean_paths_hold_no_path_stack():
    # no (runs, n_eval + 1, n, n) stack is held: the walk keeps each gap's
    # first node, and the moments take a window of nodes at a time into
    # (runs, n_eval + 1) trace tables; holding every path peaked at 1.18
    # stacks at both run counts
    inst = random_instance(InstanceSpec(n=5, M=10, p=1, seed=4))
    sched = Schedule(N=10, T=inst.T, rates=np.full((10, 10), 0.5))
    for n_runs in (200, 800):
        peak, per_run = _traced_peak_in_stacks(inst, sched, n_runs, 300)
        assert per_run < 20 and peak < 0.5, n_runs


def test_mean_paths_with_more_arrivals_than_nodes_hold_at_most_a_stack():
    # about 600 arrivals per run on 301 nodes: the walk keeps one first node
    # per gap with nodes, at most one per node (here 260 of 301), in one
    # store filled as it walks, so nothing holds the store twice; holding
    # every path peaked at 1.53 stacks, concatenating the walk's rounds at
    # 2.19
    inst = random_instance(InstanceSpec(n=5, M=10, p=1, seed=4))
    sched = Schedule(N=10, T=inst.T, rates=np.full((10, 10), 20.0))
    peak, per_run = _traced_peak_in_stacks(inst, sched, 200, 300)
    assert 250 < per_run <= 301
    assert peak < 1.5


@pytest.mark.parametrize("rate", [0.0, 1.0], ids=["zero", "positive"])
def test_mean_paths_and_bracket_do_not_depend_on_the_window(monkeypatch,
                                                            tmp_path, rate):
    # the default window holds all 31 nodes of the 12 runs at once, the
    # patched one a node at a time: the means, the spreads (zero for the
    # zero schedule) and the bracket JSON are the same, bit for bit
    inst = mixed_instance(5, T=1.0)
    sched = Schedule(N=2, T=1.0, rates=np.full((2, 5), rate))
    kw = dict(n_runs=12, n_eval=30, seed=4)
    assert cdkf.WINDOW_ENTRIES >= 12 * 31 * 16
    outs = []
    for entries in (cdkf.WINDOW_ENTRIES, 1):
        monkeypatch.setattr(cdkf, "WINDOW_ENTRIES", entries)
        path = tmp_path / f"{entries}.json"
        _dump_json(path, trajectory_bracket(
            inst, sched, surrogate_substeps=4, **kw).to_dict())
        outs.append((mc_mean_trajectories(inst, sched, **kw),
                     path.read_bytes()))
    (one, one_json), (many, many_json) = outs
    for name in ("p_mean", "y_mean"):
        np.testing.assert_array_equal(getattr(one, name).values,
                                      getattr(many, name).values)
    for name in ("p_trace_stderr", "y_trace_stderr"):
        np.testing.assert_array_equal(getattr(one, name),
                                      getattr(many, name))
        assert (getattr(one, name) == 0.0).all() == (rate == 0.0)
    assert one_json == many_json


def _break_one_power(monkeypatch):
    """Make the map of three grid steps lose positive definiteness, so
    node 3 of every gap is lost and no other node."""
    real = cdkf._map_powers

    def broken(phi, w, count):
        phis, ws = real(phi, w, count)
        ws[3] = -10.0 * np.eye(len(phi[0]))
        return phis, ws

    monkeypatch.setattr(cdkf, "_map_powers", broken)


@pytest.mark.parametrize("how", ["node", "arrival", "singular", "one-power"])
def test_mean_paths_report_the_first_loss_as_the_full_walk(monkeypatch, how):
    # with W_T alone the walk of the costs forms one node per gap, and the
    # moments form the others again from the gaps' first nodes; the error
    # is the lowest failing run's walked alone, type and message.
    # "one-power" loses only node 3 of each gap, which the walk of the
    # costs never forms here: run 0's arrival at t = 0.004 puts its node 3
    # at t = 0.2, named before run 1's at t = 0.15
    inst = make_scalar_instance(a=-0.5, q=1.0, T=1.0)
    sched = Schedule(N=1, T=1.0, rates=[[1.0]])
    if how == "one-power":
        _break_one_power(monkeypatch)
    else:
        break_the_walk(monkeypatch, how)
    records = [sample_arrivals(sched, run_seed(3, r)) for r in range(4)]
    assert [rec.n_events for rec in records] == [2, 0, 0, 2]
    alone = cdkf._lowest_failure(inst, records, time_grid(1.0, 20))
    with pytest.raises((PositiveDefinitenessError,
                        np.linalg.LinAlgError)) as means:
        mc_mean_trajectories(inst, sched, n_runs=4, n_eval=20, seed=3)
    assert type(means.value) is type(alone)
    assert str(means.value) == str(alone)
    if how == "one-power":
        assert "at node t=0.2 in run 0" in str(alone)
        mc_objective(inst, sched, n_runs=4, n_eval=20, seed=3)


# P0 = 3: no arrivals, one at 0.3, one at 0.62, and one every 0.1 from 0.12
RULE_RECORDS = [[], [(0.3, 0)], [(0.62, 0)],
                [(0.12 + 0.1 * k, 0) for k in range(9)]]


@pytest.mark.parametrize("breaks", [
    ["node"], ["arrival"], ["singular"], ["node", "arrival"],
    ["node", "singular"], ["one-power"],
], ids="-".join)
def test_a_failing_batch_names_its_lowest_failing_run_as_walked_alone(
        monkeypatch, breaks):
    # under each break some of these runs fail alone and some do not.
    # Through the full walk, the costs' read-masked walk and the moments'
    # gap windows, a batch's error is its lowest failing run's, type and
    # message, as rollout_covariance of that run alone reports it, with the
    # run's batch index: runs that do not fail, before or after it, and
    # runs that fail after it change only that index
    inst = make_scalar_instance(a=-0.5, q=1.0, p0=3.0, T=1.0)
    for how in breaks:
        if how == "one-power":
            _break_one_power(monkeypatch)
        else:
            break_the_walk(monkeypatch, how)
    grid = time_grid(inst.T, 20)
    errors = (PositiveDefinitenessError, np.linalg.LinAlgError)
    pool = [arrivals(events) for events in RULE_RECORDS]
    solo = []
    for rec in pool:
        try:
            rollout_covariance(inst, rec, 20)
            solo.append(None)
        except errors as exc:
            solo.append(exc)
    passing = [i for i, exc in enumerate(solo) if exc is None]
    failing = [i for i, exc in enumerate(solo) if exc is not None]
    assert passing and len(failing) >= 2
    sched = Schedule(N=1, T=1.0, rates=[[1.0]])
    for order in (failing, passing + failing + passing,
                  2 * passing + failing[::-1] + passing, failing + passing):
        batch = [pool[i] for i in order]
        r = next(k for k, i in enumerate(order) if solo[i] is not None)
        want = solo[order[r]]
        monkeypatch.setattr(montecarlo, "_sample_runs", lambda *_: batch)
        walks = [lambda: list(cdkf._filter_walk(inst, batch, grid)),
                 lambda: mc_mean_trajectories(inst, sched, len(batch), 20)]
        if breaks == ["one-power"]:
            # no read node and no gap's last is node 3 of its gap: only
            # the gap windows see the loss
            _run_costs(inst, batch, grid)
        else:
            walks.append(lambda: _run_costs(inst, batch, grid))
        for walk in walks:
            with pytest.raises(errors) as failed:
                walk()
            assert type(failed.value) is type(want)
            assert str(failed.value) == str(want).replace(
                "in run 0", f"in run {r}")


def test_an_overflowing_mean_is_a_numeric_failure():
    # R = P0: every run costs about P0 / (arrivals + 1).  Twenty runs near
    # 6e307 overflow the sums of the costs and of the node-0 covariances.
    # Each is named, and no overflow warning escapes.
    inst = make_scalar_instance(p0=6e307, r=6e307)
    sched = Schedule(N=1, T=1.0, rates=[[0.7]])
    with pytest.raises(PositiveDefinitenessError,
                       match="Monte Carlo mean of the cost is not finite"):
        mc_objective(inst, sched, n_runs=20, n_eval=4, seed=0)
    with pytest.raises(PositiveDefinitenessError,
                       match="Monte Carlo mean of the covariance path is "
                             "not finite"):
        mc_mean_trajectories(inst, sched, n_runs=20, n_eval=4, seed=0)


def test_a_spread_whose_squares_overflow_is_exact():
    # at P0 = R = 1e200 the costs and nodes are finite and so are their
    # spreads, but the squared deviations behind np.std overflow; the
    # reported spreads match statistics.stdev, exact over Fractions
    inst = make_scalar_instance(p0=1e200, r=1e200)
    sched = Schedule(N=1, T=1.0, rates=[[0.7]])
    est = mc_objective(inst, sched, n_runs=5, n_eval=4, seed=0)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.std(est.per_run_costs, ddof=1))
    assert est.std == pytest.approx(
        float(stdev(map(Fraction, est.per_run_costs))), rel=1e-13)
    records = [sample_arrivals(sched, run_seed(0, r)) for r in range(5)]
    paths, _ = _full_walk(inst, records, time_grid(1.0, 4))
    exact = [float(stdev(map(Fraction, node))) / np.sqrt(5)
             for node in paths[:, :, 0, 0].T]
    out = mc_mean_trajectories(inst, sched, n_runs=5, n_eval=4, seed=0)
    assert exact[-1] > 1e190
    np.testing.assert_allclose(out.p_trace_stderr, exact, rtol=1e-13, atol=0)


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
