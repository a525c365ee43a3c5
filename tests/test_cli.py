import csv
import json
import math
import re
import statistics
import warnings
from dataclasses import replace

import numpy as np
import pytest

from infosched import bounds, cli, montecarlo, optimize
from infosched.model import (
    Instance,
    InstanceSpec,
    ResourcePolytope,
    Schedule,
    Sensor,
    SystemModel,
    WeightSpec,
    instance_to_dict,
    load_schedule,
    random_instance,
    save_instance,
    save_schedule,
)

from conftest import make_scalar_instance


def write_scalar_instance(path, **kw):
    inst = make_scalar_instance(**kw)
    save_instance(path, inst)
    return inst


def write_schedule(path, rates, T=1.0):
    rates = np.asarray(rates, dtype=float)
    save_schedule(path, Schedule(N=rates.shape[0], T=T, rates=rates))


def test_solve_random_writes_bundle_and_is_byte_stable(tmp_path, capsys):
    argv = ["solve", "--random", "n=2,M=2,seed=1", "--T", "1.0",
            "--budget", "3", "--N", "3", "--substeps", "4",
            "--max-iters", "10", "--no-timings"]
    assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out
    assert "feasible=True" in out
    for suffix in ("schedule", "report", "instance"):
        assert (tmp_path / f"a.{suffix}.json").exists()
    sched = load_schedule(tmp_path / "a.schedule.json")
    assert sched.rates.shape == (3, 2)
    assert np.all(sched.rates.sum(axis=1) <= 3.0 + 1e-9)
    report = json.loads((tmp_path / "a.report.json").read_text())
    assert {"schedule", "objective", "history", "converged",
            "timings"} <= report.keys()
    assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
    for suffix in ("schedule", "report", "instance"):
        assert (tmp_path / f"a.{suffix}.json").read_bytes() == \
            (tmp_path / f"b.{suffix}.json").read_bytes()


def test_solve_zero_budget_returns_zero_schedule(tmp_path, capsys):
    argv = ["solve", "--random", "n=1,M=1,seed=2", "--T", "1.0",
            "--budget", "0", "--N", "2", "--substeps", "2",
            "--max-iters", "3", "--out", str(tmp_path / "z")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    sched = load_schedule(tmp_path / "z.schedule.json")
    assert np.all(sched.rates <= 1e-9)


def test_solve_negative_budget_is_usage_error(tmp_path, capsys):
    argv = ["solve", "--random", "n=1,M=1,seed=2", "--T", "1.0",
            "--budget", "-3", "--N", "2", "--out", str(tmp_path / "neg")]
    assert cli.main(argv) == 2
    assert "nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "neg.schedule.json").exists()


def test_solve_requires_an_instance_source(capsys):
    assert cli.main(["solve", "--N", "2"]) == 2
    assert "instance" in capsys.readouterr().err


def test_bad_random_spec_is_usage_error(capsys):
    assert cli.main(["solve", "--random", "n=bogus,M=2"]) == 2
    assert "not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ("n=2,M", "bad --random entry 'M', expected key=value"),
    ("n=2,M=2,q=1", "unknown --random key 'q', expected n, M, p, seed"),
    ("M=2", "--random needs n=..."),
    ("n=2", "--random needs M=..."),
], ids=["no-equals", "unknown-key", "no-n", "no-M"])
def test_a_malformed_random_spec_is_a_usage_error(tmp_path, capsys, spec,
                                                  message):
    argv = ["solve", "--random", spec, "--N", "2", "--out",
            str(tmp_path / "r")]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_an_empty_random_entry_is_skipped(tmp_path, capsys):
    argv = ["solve", "--N", "2", "--max-iters", "1", "--no-timings"]
    outs = []
    for prefix, spec in (("a", "n=2,,M=3"), ("b", "n=2,M=3")):
        assert cli.main(argv + ["--random", spec, "--out",
                                str(tmp_path / prefix)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    for suffix in ("schedule", "report", "instance"):
        assert (tmp_path / f"a.{suffix}.json").read_bytes() == \
            (tmp_path / f"b.{suffix}.json").read_bytes()


def test_malformed_instance_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    sched_path = tmp_path / "s.json"
    write_schedule(sched_path, np.zeros((2, 1)))
    argv = ["evaluate", "--instance", str(bad), "--schedule", str(sched_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_evaluate_missing_file_is_usage_error(tmp_path, capsys):
    sched_path = tmp_path / "s.json"
    write_schedule(sched_path, np.zeros((2, 1)))
    argv = ["evaluate", "--instance", str(tmp_path / "nope.json"),
            "--schedule", str(sched_path)]
    assert cli.main(argv) == 2
    capsys.readouterr()


def test_evaluate_bad_n_eval_samples_nothing(tmp_path, monkeypatch, capsys):
    calls = []
    real = montecarlo.sample_arrivals

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(montecarlo, "sample_arrivals", counted)
    inst_path = tmp_path / "inst.json"
    write_scalar_instance(inst_path)
    sched_path = tmp_path / "sched.json"
    write_schedule(sched_path, np.ones((2, 1)))
    argv = ["evaluate", "--instance", str(inst_path),
            "--schedule", str(sched_path), "--runs", "50", "--n-eval", "0"]
    assert cli.main(argv) == 2
    assert "n_eval must be >= 1, got 0" in capsys.readouterr().err
    assert calls == []


def _edit_instance(payload):
    payload["A"][0][0] = "x"


@pytest.mark.parametrize("target,edit,message", [
    ("instance", lambda d: d.update(n="abc"), "malformed instance payload"),
    ("instance", _edit_instance, "malformed instance payload"),
    ("schedule", lambda d: d.update(N="two"), "malformed schedule payload"),
    ("instance", None, "Is a directory"),
], ids=["instance-n", "instance-A", "schedule-N", "directory"])
def test_malformed_input_files_are_usage_errors(tmp_path, capsys, target,
                                                edit, message):
    paths = {"instance": tmp_path / "inst.json",
             "schedule": tmp_path / "sched.json"}
    write_scalar_instance(paths["instance"])
    write_schedule(paths["schedule"], np.zeros((2, 1)))
    if edit is None:
        paths[target] = tmp_path
    else:
        payload = json.loads(paths[target].read_text())
        edit(payload)
        paths[target].write_text(json.dumps(payload))
    argv = ["evaluate", "--instance", str(paths["instance"]),
            "--schedule", str(paths["schedule"]), "--runs", "2"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("target, field, value", [
    ("instance", "n", 1.5), ("schedule", "N", 2.5),
])
def test_a_fractional_count_is_a_usage_error(tmp_path, capsys, target, field,
                                             value):
    # the scalar instance has n = 1 and the schedule N = 2, what int() makes
    # of the edited counts: the loader refuses them instead
    paths = {"instance": tmp_path / "inst.json",
             "schedule": tmp_path / "sched.json"}
    write_scalar_instance(paths["instance"])
    write_schedule(paths["schedule"], np.ones((2, 1)))
    payload = json.loads(paths[target].read_text())
    payload[field] = value
    paths[target].write_text(json.dumps(payload))
    argv = ["evaluate", "--instance", str(paths["instance"]),
            "--schedule", str(paths["schedule"]), "--runs", "2"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {field} must be a whole number, got {value}\n"


@pytest.mark.parametrize("targets, field, value", [
    (["instance"], "n", True), (["schedule"], "N", True),
    (["instance", "schedule"], "T", True), (["instance"], "T", "1"),
    (["schedule"], "T", "1"),
], ids=["n-true", "N-true", "T-true", "instance-T-string",
        "schedule-T-string"])
def test_a_bool_or_a_string_is_not_a_number(tmp_path, capsys, targets, field,
                                            value):
    # int() and float() take True as 1 and "1" as 1.0, the scalar files' own
    # n and T: the loaders refuse them, naming the field, and write nothing
    paths = {"instance": tmp_path / "inst.json",
             "schedule": tmp_path / "sched.json"}
    write_scalar_instance(paths["instance"])
    write_schedule(paths["schedule"], np.ones((1, 1)))
    for target in targets:
        payload = json.loads(paths[target].read_text())
        payload[field] = value
        paths[target].write_text(json.dumps(payload))
    files = ["--instance", str(paths["instance"])]
    runs = [["evaluate", "--schedule", str(paths["schedule"]),
             "--runs", "2"] + files]
    if "instance" in targets:
        runs.append(["solve", "--N", "1", "--max-iters", "1"] + files)
    for argv in runs:
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: malformed {targets[0]} payload: ")
        assert f"{field} must be a number, got {value!r}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["inst.json", "sched.json"]


@pytest.mark.parametrize("rates,T,message", [
    (np.ones((2, 1)), 1.0, "schedule has 1 sensor columns, instance has 2"),
    (np.ones((2, 2)), 0.5, "schedule horizon 0.5 != instance horizon 1"),
], ids=["columns", "horizon"])
def test_evaluate_schedule_of_another_instance_is_usage_error(
        tmp_path, capsys, rates, T, message):
    inst_path = tmp_path / "inst.json"
    save_instance(inst_path, random_instance(InstanceSpec(n=2, M=2, T=1.0)))
    sched_path = tmp_path / "sched.json"
    write_schedule(sched_path, rates, T=T)
    argv = ["evaluate", "--instance", str(inst_path),
            "--schedule", str(sched_path), "--runs", "4", "--n-eval", "10"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_evaluate_zero_schedule_deterministic_report(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    write_scalar_instance(inst_path, a=-0.4, q=0.3, p0=1.5)
    sched_path = tmp_path / "sched.json"
    write_schedule(sched_path, np.zeros((2, 1)))
    base = ["evaluate", "--instance", str(inst_path),
            "--schedule", str(sched_path), "--runs", "4",
            "--n-eval", "20"]
    assert cli.main(base + ["--out", str(tmp_path / "mc1.json")]) == 0
    out = capsys.readouterr().out
    assert "runs=4" in out and "stderr=0" in out
    report = json.loads((tmp_path / "mc1.json").read_text())
    assert report["std"] == 0.0
    assert len(report["costs"]) == 4
    assert cli.main(base + ["--out", str(tmp_path / "mc2.json")]) == 0
    capsys.readouterr()
    assert (tmp_path / "mc1.json").read_bytes() == \
        (tmp_path / "mc2.json").read_bytes()


def test_bracket_zero_schedule_certifies(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    write_scalar_instance(inst_path, a=-0.3, q=0.4, p0=2.0)
    sched_path = tmp_path / "sched.json"
    write_schedule(sched_path, np.zeros((2, 1)))
    argv = ["bracket", "--instance", str(inst_path),
            "--schedule", str(sched_path), "--runs", "4", "--n-eval", "30",
            "--surrogate-substeps", "10",
            "--out", str(tmp_path / "cert")]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "contained=True trajectory_contained=True" in out
    report = json.loads((tmp_path / "cert.bracket.json").read_text())
    assert report["contained"] is True
    assert report["trajectory_contained"] is True
    assert len(report["times"]) == 31


def test_bracket_snr_sweep_writes_csv(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    write_scalar_instance(inst_path, a=-0.2, q=0.3, budget=4.0)
    sched_path = tmp_path / "sched.json"
    write_schedule(sched_path, np.full((2, 1), 1.5))
    argv = ["bracket", "--instance", str(inst_path),
            "--schedule", str(sched_path), "--runs", "60", "--n-eval", "20",
            "--surrogate-substeps", "20",
            "--objective-only", "--snr-sweep", "1e-1..1e1,3",
            "--out", str(tmp_path / "cert")]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.count("r_scale=") == 3
    with open(tmp_path / "cert.snr.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    assert rows[0][0] == "r_scale"
    assert [r[-1] for r in rows[1:]] == ["1", "1", "1"]


def test_reference_commands_write_every_artifact(tmp_path, capsys):
    # the README's reference pair at tiny sizes: solve --random --out, then
    # bracket --snr-sweep --out on the instance and schedule it wrote
    prefix = str(tmp_path / "ref")
    assert cli.main(["solve", "--random", "n=5,M=30,p=1,seed=0", "--N", "4",
                     "--substeps", "2", "--max-iters", "3",
                     "--out", prefix]) == 0
    assert cli.main(["bracket", "--instance", f"{prefix}.instance.json",
                     "--schedule", f"{prefix}.schedule.json", "--runs", "4",
                     "--n-eval", "20", "--seed", "500",
                     "--snr-sweep", "1e-2..1e2,2", "--out", prefix]) == 0
    capsys.readouterr()
    names = {"ref.instance.json", "ref.schedule.json", "ref.report.json",
             "ref.bracket.json"}
    assert {p.name for p in tmp_path.iterdir()} == names | {"ref.snr.csv"}
    for name in names:
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert text.endswith("}\n")
        json.loads(text)
    report = json.loads((tmp_path / "ref.report.json").read_text())
    assert report["iterations"] <= 3
    bracket = json.loads((tmp_path / "ref.bracket.json").read_text())
    assert bracket["mc"]["n_runs"] == 4
    assert len(bracket["times"]) == 21
    with open(tmp_path / "ref.snr.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 3


def test_bad_snr_spec_is_usage_error(tmp_path, capsys, monkeypatch):
    # the spec is parsed before any bracket runs or any file is written
    calls = []
    for name in ("objective_bracket", "trajectory_bracket"):
        def counted(*args, _fn=getattr(bounds, name), **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(bounds, name, counted)
    inst_path = tmp_path / "inst.json"
    write_scalar_instance(inst_path)
    sched_path = tmp_path / "sched.json"
    write_schedule(sched_path, np.zeros((1, 1)))
    argv = ["bracket", "--instance", str(inst_path),
            "--schedule", str(sched_path), "--runs", "2", "--n-eval", "10",
            "--snr-sweep", "bogus", "--out", str(tmp_path / "cert")]
    for mode in ([], ["--objective-only"]):
        assert cli.main(argv + mode) == 2
        assert "bad --snr-sweep 'bogus'" in capsys.readouterr().err
    assert calls == []
    assert not list(tmp_path.glob("cert*"))


# every float flag, and the command that reads it; --T and --budget only
# shape a --random instance
FLOAT_FLAGS = [("solve", "--T"), ("solve", "--budget"),
               ("solve", "--grad-tol"), ("sweep", "--T"),
               ("sweep", "--budget"), ("sweep", "--grad-tol"),
               ("gradcheck", "--T"), ("gradcheck", "--budget"),
               ("gradcheck", "--fd-step"), ("bracket", "--snr-sweep")]


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
@pytest.mark.parametrize("command,flag", FLOAT_FLAGS,
                         ids=[f"{c}{f}" for c, f in FLOAT_FLAGS])
def test_a_non_finite_float_flag_is_refused_before_any_work(
        tmp_path, capsys, command, flag, value):
    # 1e400 parses to inf; an --snr-sweep range takes the value at one end
    inst_path = tmp_path / "inst.json"
    write_scalar_instance(inst_path)
    sched_path = tmp_path / "sched.json"
    write_schedule(sched_path, np.zeros((1, 1)))
    given = sorted(tmp_path.iterdir())
    small = ["--N", "2", "--max-iters", "1"]
    argv = {
        "solve": ["solve", "--random", "n=1,M=1,seed=2",
                  "--out", str(tmp_path / "out")] + small,
        "sweep": ["sweep", "--sweep", "dimension", "--grid", "2",
                  "--instances", "1", "--runs", "2", "--substeps", "2",
                  "--out", str(tmp_path / "s.csv")] + small,
        "gradcheck": ["gradcheck", "--random", "n=1,M=1,seed=2", "--N", "2"],
        "bracket": ["bracket", "--instance", str(inst_path), "--schedule",
                    str(sched_path), "--runs", "2", "--n-eval", "10",
                    "--out", str(tmp_path / "cert")],
    }[command]
    if flag == "--snr-sweep":
        value = "nan..1,3" if value == "nan" else f"1e-2..{value},3"
    assert cli.main(argv + [flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert sorted(tmp_path.iterdir()) == given


@pytest.mark.parametrize("n_eval", ["0", "-3"])
@pytest.mark.parametrize("mode", [[], ["--objective-only"]])
def test_bracket_bad_n_eval_is_usage_error(tmp_path, capsys, n_eval, mode):
    inst_path = tmp_path / "inst.json"
    write_scalar_instance(inst_path)
    sched_path = tmp_path / "sched.json"
    write_schedule(sched_path, np.zeros((1, 1)))
    argv = ["bracket", "--instance", str(inst_path),
            "--schedule", str(sched_path), "--runs", "2",
            "--n-eval", n_eval] + mode
    assert cli.main(argv) == 2
    assert f"n_eval must be >= 1, got {n_eval}" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [["--instances", "0"], ["--grid", ","]])
def test_sweep_empty_is_usage_error(tmp_path, capsys, bad):
    argv = ["sweep", "--sweep", "dimension", "--grid", "2", "--runs", "2",
            "--out", str(tmp_path / "s.csv")] + bad
    assert cli.main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def counted(real, calls):
    """real, appending its name to calls at each call."""
    def run(*args, **kwargs):
        calls.append(real.__name__)
        return real(*args, **kwargs)
    return run


@pytest.mark.parametrize("bad,message", [
    (["--runs", "0"], "--runs must be >= 1, got 0"),
    (["--n-eval", "0"], "--n-eval must be >= 1, got 0"),
], ids=["runs", "n-eval"])
def test_sweep_bad_monte_carlo_size_solves_nothing(tmp_path, monkeypatch,
                                                   capsys, bad, message):
    # rejected before any solve or Monte Carlo estimate
    calls = []
    for name in ("solve", "mc_objective"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name), calls))
    argv = ["sweep", "--sweep", "dimension", "--grid", "2",
            "--instances", "1", "--N", "2", "--substeps", "2",
            "--max-iters", "1", "--out", str(tmp_path / "s.csv")] + bad
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad,message", [
    (["--N", "0"], "N must be >= 1, got 0"),
    (["--substeps", "0"], "substeps must be >= 1, got 0"),
    (["--seed", "-1"], "seed must be a nonnegative integer, got -1"),
], ids=["N", "substeps", "seed"])
def test_sweep_bad_problem_or_seed_writes_no_csv(tmp_path, monkeypatch,
                                                 capsys, bad, message):
    # each point's problem is built, and the estimates' seed checked, before
    # the CSV is opened: no solve, no estimate and no header-only file
    calls = []
    for name in ("solve", "mc_objective"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name), calls))
    argv = ["sweep", "--sweep", "dimension", "--grid", "2",
            "--instances", "1", "--runs", "2", "--max-iters", "1",
            "--out", str(tmp_path / "s.csv")] + bad
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,bad,message", [
    ("solve", ["--max-iters", "-3"], "max_iters must be >= 0, got -3"),
    ("solve", ["--grad-tol", "nan"], "grad_tol must be finite and >= 0"),
    ("solve", ["--grad-tol=-1e-6"], "grad_tol must be finite and >= 0"),
    ("sweep", ["--max-iters", "-1"], "max_iters must be >= 0, got -1"),
    ("sweep", ["--grad-tol", "inf"], "grad_tol must be finite and >= 0"),
], ids=["solve-max-iters", "solve-grad-tol-nan", "solve-grad-tol-negative",
        "sweep-max-iters", "sweep-grad-tol-inf"])
def test_bad_solver_options_are_usage_errors(tmp_path, capsys, command, bad,
                                             message):
    out = tmp_path / "out"
    argv = {
        "solve": ["solve", "--random", "n=1,M=1,seed=2", "--N", "2",
                  "--out", str(out)],
        "sweep": ["sweep", "--sweep", "dimension", "--grid", "2",
                  "--runs", "2", "--out", str(out)],
    }[command] + bad
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert list(tmp_path.iterdir()) == []


def test_sweep_to_an_unwritable_path_solves_nothing(tmp_path, monkeypatch,
                                                    capsys):
    # the CSV is opened before the first solve, not after the whole grid
    calls = []
    for name in ("solve", "mc_objective"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name), calls))
    argv = ["sweep", "--sweep", "dimension", "--grid", "2",
            "--instances", "1", "--runs", "2", "--N", "2", "--substeps", "4",
            "--max-iters", "1", "--n-eval", "10",
            "--out", str(tmp_path / "missing" / "s.csv")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


def test_sweep_runs_one_solve_and_one_estimate_per_kind(tmp_path,
                                                        monkeypatch, capsys):
    # no probe solves or probe estimates before the sweep's own work
    calls = []
    for name in ("solve", "mc_objective"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name), calls))
    argv = ["sweep", "--sweep", "dimension", "--grid", "2",
            "--instances", "1", "--runs", "2", "--N", "2", "--substeps", "4",
            "--max-iters", "1", "--n-eval", "10",
            "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == ["solve", "mc_objective"] * 2


def test_sweep_tiny_grid_byte_stable(tmp_path, capsys):
    argv = ["sweep", "--sweep", "dimension", "--grid", "2",
            "--instances", "1", "--runs", "4", "--N", "4",
            "--substeps", "4", "--max-iters", "5", "--n-eval", "40",
            "--no-timings"]
    assert cli.main(argv + ["--out", str(tmp_path / "s1.csv")]) == 0
    out = capsys.readouterr().out
    assert "summary dimension=2 kind=info" in out
    assert "summary dimension=2 kind=cov" in out
    with open(tmp_path / "s1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["kind"] for r in rows} == {"info", "cov"}
    assert rows[0]["sweep"] == "dimension" and rows[0]["point"] == "2"
    assert all(r["total_s"] == "0.0" for r in rows)
    float(rows[0]["objective_norm"])
    assert cli.main(argv + ["--out", str(tmp_path / "s2.csv")]) == 0
    capsys.readouterr()
    assert (tmp_path / "s1.csv").read_bytes() == \
        (tmp_path / "s2.csv").read_bytes()


TINY_SWEEP = ["sweep", "--sweep", "dimension", "--runs", "2", "--N", "2",
              "--T", "1", "--substeps", "4", "--max-iters", "2",
              "--n-eval", "10", "--no-timings"]


def _sweep_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_points_that_are_not_integers_are_a_usage_error(tmp_path,
                                                              capsys):
    argv = TINY_SWEEP + ["--grid", "2,x", "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: bad --grid '2,x'\n")
    assert list(tmp_path.iterdir()) == []


def test_sweep_without_a_grid_runs_the_default_points(tmp_path, capsys):
    argv = TINY_SWEEP + ["--instances", "1", "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = _sweep_rows(tmp_path / "s.csv")
    assert [(r["point"], r["kind"]) for r in rows] == [
        (pt, kind) for pt in ("2", "4", "8") for kind in ("info", "cov")]
    assert [line.split()[1] for line in out.splitlines()
            if line.startswith("summary")] == \
        ["dimension=2", "dimension=2", "dimension=4", "dimension=4",
         "dimension=8", "dimension=8"]


@pytest.mark.parametrize("sweep, full, points", [
    ("sensors", [], [10, 20, 40]),
    ("sensors", ["--full"], [10, 20, 40, 60, 80, 100]),
    ("dimension", [], [2, 4, 8]),
    ("dimension", ["--full"], [2, 4, 8, 12, 16, 20]),
], ids=["sensors", "sensors-full", "dimension", "dimension-full"])
def test_sweep_default_points(sweep, full, points):
    # the points of each sweep without --grid, read from the parsed
    # arguments without running one
    args = cli.build_parser().parse_args(
        ["sweep", "--sweep", sweep, "--out", "unused.csv"] + full)
    assert cli._sweep_points(args) == [(sweep, pt) for pt in points]


def test_sweep_full_with_a_grid_warns_and_summarizes_the_csv(tmp_path,
                                                             capsys):
    # --full with --grid runs the grid alone; each summary line is the
    # median and interquartile range of the CSV's mc_mean_norm column
    argv = TINY_SWEEP + ["--full", "--grid", "2", "--instances", "2",
                         "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "warning: --full grids can take hours\n"
    rows = _sweep_rows(tmp_path / "s.csv")
    assert [(r["point"], r["instance"], r["kind"]) for r in rows] == [
        ("2", idx, kind) for idx in ("0", "1") for kind in ("info", "cov")]
    summary = [line for line in out.splitlines()
               if line.startswith("summary")]
    expected = []
    for kind in ("info", "cov"):
        vals = [float(r["mc_mean_norm"]) for r in rows if r["kind"] == kind]
        assert len(set(vals)) == 2
        q = statistics.quantiles(vals, n=4)
        expected.append(f"summary dimension=2 kind={kind} "
                        f"median={statistics.median(vals):.6g} "
                        f"iqr={q[2] - q[0]:.3g}")
    assert summary == expected


def test_sweep_csv_cells_are_the_reported_numbers(tmp_path, monkeypatch,
                                                  capsys):
    # every numeric cell parses with float() and is the number of the row's
    # solve report or Monte Carlo estimate, normalized by trace(P0)
    seen = []

    def recorded(real):
        def run(*args, **kwargs):
            seen.append((args[0], real(*args, **kwargs)))
            return seen[-1][1]
        return run

    for name in ("solve", "mc_objective"):
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    argv = ["sweep", "--sweep", "dimension", "--grid", "2",
            "--instances", "1", "--runs", "3", "--N", "2", "--substeps", "4",
            "--max-iters", "2", "--n-eval", "10",
            "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    with open(tmp_path / "s.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and len(seen) == 4
    for row, (problem, report), (instance, est) in zip(rows, seen[::2],
                                                       seen[1::2]):
        assert problem.instance is instance and row["kind"] == problem.kind
        timings = report.to_dict()["timings"]
        P0 = instance.system.P0
        want = {
            "point": 2, "instance": 0, "iterations": report.iterations,
            "converged": int(report.converged),
            "objective_norm": cli._per_trace(report.objective, P0),
            "mc_mean_norm": cli._per_trace(est.mean, P0),
            "mc_stderr_norm": cli._per_trace(est.stderr, P0),
            "forward_s": timings["forward_s"],
            "gradient_s": timings["gradient_assembly_s"],
            "projection_s": timings["projection_s"],
            "total_s": timings["total_s"],
        }
        assert est.stderr > 0.0
        for key, value in want.items():
            assert float(row[key]) == value, key


def test_gradcheck_builtin_scalar_passes(capsys):
    assert cli.main(["gradcheck", "--kind", "both"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_gradcheck_corrupted_gradient_fails(monkeypatch, capsys):
    # negative control: the adjoint gradient that gradcheck checks, off by 10%
    exact = optimize.objective_and_gradient

    def corrupted(problem, rates):
        J, G = exact(problem, rates)
        return J, 1.1 * G

    monkeypatch.setattr(optimize, "objective_and_gradient", corrupted)
    assert cli.main(["gradcheck", "--kind", "info"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_zero_fd_step_is_usage_error(capsys):
    # negative control: a zero step used to read max_rel_err=0 and PASS
    argv = ["gradcheck", "--random", "n=3,M=4,seed=3", "--N", "2",
            "--fd-step", "0"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.startswith("error: fd_step must be finite and positive")


# J is about 1.1e4 against gradient entries from 0.26 to 7.1: the
# differences' roundoff is large next to the smaller entries
GRADCHECK_N20 = ["gradcheck", "--random", "n=20,M=3,p=1,seed=21", "--T", "2",
                 "--budget", "200", "--N", "3", "--substeps", "2",
                 "--kind", "info"]


def test_gradcheck_passes_when_the_objective_dwarfs_its_gradient(capsys):
    # central differences of second order read 2.3e-5 here at any step
    # that keeps their truncation small; the five-point stencil reads ~2e-7
    assert cli.main(GRADCHECK_N20) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("pick", [np.argmin, np.argmax],
                         ids=["smallest", "largest"])
def test_gradcheck_fails_one_entry_off_by_a_ten_thousandth(monkeypatch,
                                                          capsys, pick):
    # negative control: the correct gradient with one entry, the smallest
    # or the largest, scaled by 1 + 1e-4
    exact = optimize.objective_and_gradient

    def nudged(problem, rates):
        J, G = exact(problem, rates)
        G.flat[pick(np.abs(G))] *= 1.0 + 1e-4
        return J, G

    monkeypatch.setattr(optimize, "objective_and_gradient", nudged)
    assert cli.main(GRADCHECK_N20) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["evaluate", "bracket", "gradcheck",
                                     "solve"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    inst_path = tmp_path / "inst.json"
    write_scalar_instance(inst_path)
    sched_path = tmp_path / "sched.json"
    write_schedule(sched_path, np.ones((2, 1)))
    files = ["--instance", str(inst_path), "--schedule", str(sched_path),
             "--runs", "2", "--n-eval", "10", "--seed", "-1"]
    argv = {
        "evaluate": ["evaluate"] + files,
        "bracket": ["bracket"] + files,
        "gradcheck": ["gradcheck", "--seed", "-1"],
        "solve": ["solve", "--random", "n=1,M=1,seed=-2", "--N", "2"],
    }[command]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error: seed must be a nonnegative integer, got -")


def test_gradcheck_checks_the_instance_file(tmp_path, monkeypatch, capsys):
    # the check must run on the file's instance, not the built-in scalar one
    inst = random_instance(InstanceSpec(n=2, M=3, seed=4, T=1.0, budget=3.0))
    save_instance(tmp_path / "inst.json", inst)
    checked = []
    real = cli.gradient_check

    def recorded(problem, rates, fd_step):
        checked.append((problem.instance.n, problem.M, problem.N))
        return real(problem, rates, fd_step=fd_step)

    monkeypatch.setattr(cli, "gradient_check", recorded)
    argv = ["gradcheck", "--instance", str(tmp_path / "inst.json"),
            "--kind", "info", "--N", "3", "--substeps", "4"]
    assert cli.main(argv) == 0
    assert "PASS" in capsys.readouterr().out
    assert checked == [(2, 3, 3)]


def test_gradcheck_missing_instance_file_is_usage_error(tmp_path, capsys):
    argv = ["gradcheck", "--instance", str(tmp_path / "nope.json")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.startswith("error:")


def test_gradcheck_random_instance_both_kinds(capsys):
    argv = ["gradcheck", "--random", "n=2,M=2,seed=3", "--T", "1.0",
            "--budget", "3", "--N", "3", "--substeps", "4"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.count("PASS") == 2


# ---------------------------------------------------------------------------
# degenerate inputs: every command ends with a typed exit, never a traceback


def degenerate_case(A, Q=None, P0=None, sensors=None, C=None, b=(2.0,),
                    rates=0.5):
    """The instance file's payload on T = 1 and a schedule of N = 4 stages.
    sensors are (H, R) pairs, by default one scalar sensor per state; rates
    is a rate per sensor (or one for all), kept small so the Monte Carlo
    draws few arrivals.  P0 goes into the payload as given, so a prior the
    loader refuses still reaches the commands."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if sensors is None:
        sensors = [(np.eye(n)[[i]], np.eye(1)) for i in range(n)]
    M = len(sensors)
    inst = Instance(
        system=SystemModel(n=n, A=A, Q=np.eye(n) if Q is None else Q,
                           P0=np.eye(n), T=1.0),
        sensors=tuple(Sensor(H=H, R=R) for H, R in sensors),
        polytope=ResourcePolytope(C=np.ones((1, M)) if C is None else C,
                                  b=np.asarray(b, dtype=float)),
        weights=WeightSpec(W_stages=None, W_T=np.eye(n)))
    payload = instance_to_dict(inst)
    if P0 is not None:
        payload["P0"] = np.asarray(P0, dtype=float).tolist()
    rates = np.broadcast_to(np.asarray(rates, dtype=float), (4, M))
    return payload, rates


DEGENERATE = {
    "Q0-A0": lambda: degenerate_case(np.zeros((2, 2)), Q=np.zeros((2, 2))),
    "defective-unstable": lambda: degenerate_case([[0.5, 1.0], [0.0, 0.5]]),
    "zero-budget": lambda: degenerate_case(-np.eye(2), b=[0.0], rates=0.0),
    "p2-ill-conditioned-R": lambda: degenerate_case(
        -np.eye(2), sensors=[(np.eye(2), np.diag([1.0, 1e-13])),
                             (np.array([[1.0, 1.0]]), np.eye(1))]),
    "P0-spread": lambda: degenerate_case(
        -0.5 * np.eye(2), P0=np.diag([1e12, 1e-3])),
    "stiff-A": lambda: degenerate_case(-1e4),
    "stiff-gain": lambda: degenerate_case(
        0.0, sensors=[(np.eye(1), np.array([[1e-3]]))], b=(400.0,),
        rates=200.0),
    "tiny-R": lambda: degenerate_case(
        -1.0, sensors=[(np.eye(1), np.array([[1e-200]]))]),
    "zero-b-row": lambda: degenerate_case(
        -np.eye(2), sensors=[(np.eye(2)[[i % 2]], np.eye(1))
                             for i in range(3)],
        C=np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0]]), b=[3.0, 0.0],
        rates=[1.0, 0.0, 1.0]),
    "zero-rate-columns": lambda: degenerate_case(
        -np.eye(2), sensors=[(np.eye(2)[[i % 2]], np.eye(1))
                             for i in range(3)],
        rates=[0.8, 0.0, 0.0]),
    "Q0-A0-tiny-R": lambda: degenerate_case(
        np.zeros((3, 3)), Q=np.zeros((3, 3)),
        sensors=[(np.eye(3)[[0]], np.array([[1e-12]]))], b=(5.0,),
        rates=2.0),
}


def finite_json(path):
    """True when the JSON file holds only finite numbers."""
    def finite(x):
        if isinstance(x, dict):
            return all(finite(v) for v in x.values())
        if isinstance(x, list):
            return all(finite(v) for v in x)
        return not isinstance(x, float) or math.isfinite(x)

    def refuse(constant):
        raise ValueError(constant)

    try:
        return finite(json.loads(path.read_text(), parse_constant=refuse))
    except ValueError:
        return False


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_inputs_end_typed_with_finite_outputs(tmp_path, capsys,
                                                         case):
    payload, rates = DEGENERATE[case]()
    (tmp_path / "inst.json").write_text(json.dumps(payload))
    write_schedule(tmp_path / "sched.json", rates)
    files = ["--instance", str(tmp_path / "inst.json")]
    mc = ["--schedule", str(tmp_path / "sched.json"), "--runs", "5",
          "--n-eval", "12"]
    commands = [
        ["solve", "--N", "4", "--substeps", "2", "--max-iters", "20",
         "--out", str(tmp_path / "info")],
        ["solve", "--kind", "cov", "--N", "4", "--substeps", "2",
         "--max-iters", "5", "--out", str(tmp_path / "cov")],
        ["evaluate", "--out", str(tmp_path / "mc.json")] + mc,
        ["bracket", "--out", str(tmp_path / "cert")] + mc,
    ]
    for argv in commands:
        with np.errstate(all="ignore"):
            assert cli.main(argv[:1] + files + argv[1:]) in (0, 1, 2), argv
    capsys.readouterr()
    written = set(tmp_path.glob("*.json")) - {tmp_path / "inst.json",
                                              tmp_path / "sched.json"}
    assert sorted(p.name for p in written if not finite_json(p)) == []


@pytest.mark.parametrize("mode", [[], ["--objective-only"]],
                         ids=["trajectory", "objective-only"])
def test_bracket_pd_loss_of_a_derived_path_is_a_numeric_failure(
        tmp_path, capsys, mode):
    # the tiny R drives the information surrogate up until its inverse, the
    # covariance path the trajectory bracket derives from it, meets the PD
    # floor; the objective bracket's Monte Carlo loses PD at an arrival
    payload, rates = DEGENERATE["Q0-A0-tiny-R"]()
    (tmp_path / "inst.json").write_text(json.dumps(payload))
    write_schedule(tmp_path / "sched.json", rates)
    argv = ["bracket", "--instance", str(tmp_path / "inst.json"),
            "--schedule", str(tmp_path / "sched.json"), "--runs", "5",
            "--n-eval", "12"] + mode
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("numeric failure: ")


def test_badly_scaled_prior_is_a_usage_error_at_load(tmp_path, capsys):
    # P0 = diag(1e12, 1e-3) is positive definite, but its min eigenvalue is
    # below the floor PD_FLOOR_REL * trace/n that every path is held to:
    # each command refuses it at load, names P0 and writes nothing
    payload, rates = DEGENERATE["P0-spread"]()
    (tmp_path / "inst.json").write_text(json.dumps(payload))
    write_schedule(tmp_path / "sched.json", rates)
    inputs = set(tmp_path.iterdir())
    files = ["--instance", str(tmp_path / "inst.json")]
    mc = ["--schedule", str(tmp_path / "sched.json"), "--runs", "5"]
    for argv in (["solve", "--out", str(tmp_path / "info")],
                 ["evaluate", "--out", str(tmp_path / "mc.json")] + mc,
                 ["bracket", "--out", str(tmp_path / "cert")] + mc):
        assert cli.main(argv[:1] + files + argv[1:]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: P0 is too badly scaled")
    assert set(tmp_path.iterdir()) == inputs


def _nan_stage_weight(payload):
    stages = np.stack([np.eye(2)] * 4)
    stages[2, 0, 0] = math.nan
    payload["weights"]["W_stages"] = stages.tolist()


def _infinite_noise(payload):
    payload["sensors"][1]["R"][0][0] = math.inf


@pytest.mark.parametrize("edit, field, token", [
    (_nan_stage_weight, "W_stages[2]", "NaN"),
    (_infinite_noise, "R[1]", "Infinity"),
], ids=["nan-W_stages", "inf-R"])
def test_a_non_finite_json_token_is_refused_at_load(tmp_path, capsys, edit,
                                                    field, token):
    # json reads the NaN and Infinity tokens as floats; the loader refuses
    # them by name and stack index, so no command reports a nan objective or
    # fails later on a derived quantity
    payload, rates = degenerate_case(-np.eye(2))
    edit(payload)
    (tmp_path / "inst.json").write_text(json.dumps(payload))
    assert token in (tmp_path / "inst.json").read_text()
    write_schedule(tmp_path / "sched.json", rates)
    inputs = set(tmp_path.iterdir())
    files = ["--instance", str(tmp_path / "inst.json")]
    mc = ["--schedule", str(tmp_path / "sched.json"), "--runs", "5"]
    for argv in (["solve", "--N", "4", "--out", str(tmp_path / "info")],
                 ["evaluate", "--out", str(tmp_path / "mc.json")] + mc,
                 ["bracket", "--objective-only",
                  "--out", str(tmp_path / "cert")] + mc):
        assert cli.main(argv[:1] + files + argv[1:]) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {field} contains non-finite entries\n"
    assert set(tmp_path.iterdir()) == inputs


def test_a_projection_below_the_orthant_is_a_numeric_failure(tmp_path,
                                                            capsys):
    # on two coupled rows Dykstra's point can end a few 1e-11 below zero;
    # Schedule refuses it, and solve reports a numeric failure (exit 1), not
    # a usage error, and writes no output
    inst = random_instance(InstanceSpec(n=2, M=3, seed=1))
    inst = replace(inst, polytope=ResourcePolytope(
        C=[[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]], b=[5.0, 1.0]))
    save_instance(tmp_path / "inst.json", inst)
    inputs = set(tmp_path.iterdir())
    assert cli.main(["solve", "--instance", str(tmp_path / "inst.json"),
                     "--N", "4", "--out", str(tmp_path / "info")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"numeric failure: projected trial rates: rates must "
                        r"be nonnegative, min entry -\d\.\d{3}e-\d\d\n", err)
    assert set(tmp_path.iterdir()) == inputs


def _set_sensor_0_h(payload):
    payload["sensors"][0]["H"] = [[1.0, 0.0, 0.0]]


@pytest.mark.parametrize("edit, error", [
    (lambda d: d.update(A=(-np.eye(3)).tolist()),
     "A must have shape (2, 2), got (3, 3)"),
    (lambda d: d.update(n=0), "n must be >= 1, got 0"),
    (lambda d: d.update(sensors=[]), "instance needs at least one sensor"),
    (lambda d: d["weights"].update(WT=np.eye(3).tolist()),
     "weights are 3x3, expected 2x2"),
    (lambda d: d["weights"].update(W_stages=np.zeros((4, 3, 3)).tolist()),
     "W_stages must have shape (4, 2, 2), got (4, 3, 3)"),
    (_set_sensor_0_h, "sensor 0: H and R must have shapes (p, 2) and (p, p) "
                      "with p >= 1, got (1, 3) and (1, 1)"),
    (lambda d: d["constraints"].update(C=[[1.0, 1.0, 1.0]]),
     "C has 3 columns but instance has 2 sensors"),
], ids=["A-shape", "n-zero", "no-sensors", "WT-shape", "W_stages-shape",
        "H-width", "C-columns"])
def test_a_malformed_instance_shape_is_refused(tmp_path, capsys, edit, error):
    # the 2-state, 2-sensor instance with one part of the wrong size: exit
    # 2 naming it, and nothing written
    payload, _ = degenerate_case(-np.eye(2))
    edit(payload)
    (tmp_path / "inst.json").write_text(json.dumps(payload))
    argv = ["solve", "--instance", str(tmp_path / "inst.json"),
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert [f.name for f in tmp_path.iterdir()] == ["inst.json"]


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e308])
@pytest.mark.parametrize("key, value, error", [
    ("Q", -np.eye(2), "Q is not positive semidefinite"),
    ("P0", [[1.0, 0.1], [0.0, 1.0]], "P0 is not symmetric"),
], ids=["indefinite-Q", "skew-P0"])
def test_a_bad_matrix_is_refused_at_any_scale(tmp_path, capsys, scale, key,
                                              value, error):
    # the checks scale by the largest entry, so a norm past 1.3e154 cannot
    # overflow and wave the matrix through, nor can the symmetric part past
    # 9e307: the same verdict and exit 2 at 1, 1e200 and 1e308, with no
    # warning
    payload, _ = degenerate_case(-np.eye(2))
    payload[key] = (scale * np.asarray(value)).tolist()
    (tmp_path / "inst.json").write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["solve", "--instance",
                         str(tmp_path / "inst.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {error}")


def test_a_prior_near_the_largest_float_fails_with_one_report(tmp_path,
                                                             capsys):
    # the prior loads, but the rollouts' first node overflows: evaluate
    # exits 1 naming that node, bracket naming the trace of P0 it refuses
    # before sampling, and no RuntimeWarning comes before
    payload, rates = degenerate_case(
        -np.eye(2), P0=[[1e308, 1e307], [1e307, 1e308]])
    (tmp_path / "inst.json").write_text(json.dumps(payload))
    write_schedule(tmp_path / "sched.json", rates)
    files = ["--instance", str(tmp_path / "inst.json"),
             "--schedule", str(tmp_path / "sched.json"), "--runs", "5"]
    for argv, error in (
            (["evaluate", "--out", str(tmp_path / "mc.json")],
             "matrix has non-finite entries at node t=0 in run 0"),
            (["bracket", "--objective-only", "--out", str(tmp_path / "cert")],
             "trace of P0 is not finite")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(argv + files) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"numeric failure: {error}\n"


def test_solve_normalizes_a_prior_near_the_largest_float(tmp_path, capsys):
    # trace(P0) overflows, so solve divides in units of P0's largest
    # diagonal entry: a nonzero finite normalized value and no warning
    P0 = np.full((5, 5), 1e306)
    np.fill_diagonal(P0, 1e308)
    payload, _ = degenerate_case(-np.eye(5), P0=P0)
    (tmp_path / "inst.json").write_text(json.dumps(payload))
    assert cli.main(["solve", "--instance", str(tmp_path / "inst.json"),
                     "--max-iters", "3"]) == 0
    out, err = capsys.readouterr()
    fields = dict(f.split("=") for f in out.split()
                  if f.startswith(("objective=", "normalized=")))
    normalized = float(fields["normalized"])
    assert 0.0 < normalized < math.inf and err == ""
    want = float(fields["objective"]) / 1e308 / 5.0     # trace(P0) = 5e308
    assert normalized == pytest.approx(want, rel=1e-6, abs=0.0)


def _huge_prior_files(tmp_path, p0, a, w_T=1e-3):
    # n = 3, P0 = p0 I, A = a I, Q = I, W_T = w_T I, one sensor, the zero
    # schedule on T = 1
    payload, rates = degenerate_case(a * np.eye(3),
                                     sensors=[(np.eye(3)[[0]], np.eye(1))],
                                     P0=p0 * np.eye(3), rates=0.0)
    payload["weights"]["WT"] = (w_T * np.eye(3)).tolist()
    (tmp_path / "inst.json").write_text(json.dumps(payload))
    write_schedule(tmp_path / "sched.json", rates)
    return ["--instance", str(tmp_path / "inst.json"),
            "--schedule", str(tmp_path / "sched.json"), "--runs", "5"]


def test_an_overflowing_cost_is_a_numeric_failure(tmp_path, capsys):
    # trace(P0) = 1.5e308 is finite, and A = 0.2 I grows P(T) to about
    # 7.5e307 I, so <W_T, P(T)> = 2.2e308 overflows: evaluate and bracket
    # name the cost, exit 1 and write nothing, where a report would read
    # mean=inf
    files = _huge_prior_files(tmp_path, 5e307, 0.2, w_T=1.0)
    inputs = set(tmp_path.iterdir())
    for argv in (["evaluate", "--out", str(tmp_path / "mc.json")],
                 ["bracket", "--objective-only",
                  "--out", str(tmp_path / "cert")]):
        assert cli.main(argv + files) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("numeric failure: Monte Carlo cost of run 0 is not "
                       "finite\n")
    assert set(tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("flags", [
    ["--objective-only"], [], ["--objective-only", "--snr-sweep", "1..10,2"],
], ids=["objective", "trajectory", "snr-sweep"])
def test_a_bracket_refuses_a_trace_of_p0_past_the_largest_float(
        tmp_path, monkeypatch, capsys, flags):
    # trace(6e307 I) = 1.8e308 overflows while the cost on W_T = 1e-3 I is
    # finite and evaluate normalizes it; every normalized bound would read
    # 0, so each bracket refuses before any sampling and writes nothing
    files = _huge_prior_files(tmp_path, 6e307, 0.0) + ["--n-eval", "10"]
    inputs = set(tmp_path.iterdir())
    calls = []
    monkeypatch.setattr(montecarlo, "sample_arrivals",
                        counted(montecarlo.sample_arrivals, calls))
    argv = ["bracket", "--out", str(tmp_path / "cert")] + files + flags
    assert cli.main(argv) == 1
    assert capsys.readouterr() == (
        "", "numeric failure: trace of P0 is not finite\n")
    assert calls == []
    assert set(tmp_path.iterdir()) == inputs


def test_trajectory_tolerances_stay_finite_past_an_overflowing_trace(
        tmp_path, capsys):
    # P0 = 5e307 I has a finite trace, but on A = 0.2 I P(T)'s trace
    # overflows; the tolerance scales are trace/n by the floor's rule, so
    # every tolerance is finite and the verdict is the finite comparison
    files = _huge_prior_files(tmp_path, 5e307, 0.2) + [
        "--n-eval", "10", "--surrogate-substeps", "2"]
    assert cli.main(["bracket", "--out", str(tmp_path / "cert")] + files) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "cert.bracket.json").read_text())
    tols = report["margin_tol"]
    assert all(math.isfinite(t) for key in tols for t in tols[key])
    assert report["trajectory_contained"] == all(
        m >= -t for key in tols
        for m, t in zip(report["margins"][key], tols[key]))


def test_a_prior_whose_trace_overflows_evaluates_to_a_finite_mean(tmp_path,
                                                                   capsys):
    # n = 4, P0 = 6e307 I, whose trace overflows, and A = -I: P(T) =
    # 6e307 e^{-2} I + ..., so the cost is finite and the prior evaluates,
    # its floor finite at every node
    payload, rates = degenerate_case(-np.eye(4),
                                     sensors=[(np.eye(4)[[0]], np.eye(1))],
                                     P0=6e307 * np.eye(4), rates=0.0)
    (tmp_path / "inst.json").write_text(json.dumps(payload))
    write_schedule(tmp_path / "sched.json", rates)
    assert cli.main(["evaluate", "--instance", str(tmp_path / "inst.json"),
                     "--schedule", str(tmp_path / "sched.json"),
                     "--runs", "5", "--out", str(tmp_path / "mc.json")]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "mean=3.2480468e+307 stderr=0" in out
    mean = json.loads((tmp_path / "mc.json").read_text())["mean"]
    assert mean == pytest.approx(4 * (6e307 * math.exp(-2.0)), rel=1e-12)


@pytest.mark.parametrize("substeps", ["10", "640"])
def test_a_cov_surrogate_overflow_advises_no_substeps(tmp_path, capsys,
                                                      substeps):
    # P0 = 6e307 I on A = -I: RK4's stage sum overflows in the first step at
    # any substep count, while the Monte Carlo evaluates.  The cov kind
    # refuses a step past RK4's limit before it starts, so the non-finite
    # stop is an overflow, reported without advice
    payload, _ = degenerate_case(-np.eye(2),
                                 sensors=[(np.eye(2)[[0]], np.eye(1))],
                                 P0=6e307 * np.eye(2))
    (tmp_path / "inst.json").write_text(json.dumps(payload))
    write_schedule(tmp_path / "sched.json", np.zeros((2, 1)))
    files = ["--instance", str(tmp_path / "inst.json"),
             "--schedule", str(tmp_path / "sched.json"), "--runs", "5",
             "--n-eval", "20"]
    assert cli.main(["bracket", "--objective-only", "--surrogate-substeps",
                     substeps, "--out", str(tmp_path / "cert")] + files) == 1
    assert capsys.readouterr() == (
        "", "numeric failure: matrix has non-finite entries in cov surrogate "
            "near t=0.05\n")
    assert not (tmp_path / "cert.bracket.json").exists()
    assert cli.main(["evaluate"] + files) == 0
    assert "mean=1.6240234e+307" in capsys.readouterr().out


def test_stiff_cov_solve_asks_for_substeps(tmp_path, capsys):
    # A = -1e4, or a centered rate of 200 on R = 1e-3, against a step of
    # T / (N substeps) = 0.125: RK4 diverges on the cov surrogate while
    # every stop stays positive definite, so the surrogate refuses the step
    # instead of reporting the blow-up
    for case in ("stiff-A", "stiff-gain"):
        payload, _ = DEGENERATE[case]()
        (tmp_path / "inst.json").write_text(json.dumps(payload))
        argv = ["solve", "--kind", "cov",
                "--instance", str(tmp_path / "inst.json"), "--N", "4",
                "--substeps", "2", "--max-iters", "5",
                "--out", str(tmp_path / "cov")]
        assert cli.main(argv) == 1, case
        out, err = capsys.readouterr()
        assert "past RK4's stability limit" in err, case
        assert "increase substeps" in err, case
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]
