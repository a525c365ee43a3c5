"""Smoke runs of the scripts under scripts/ at tiny sizes."""

import csv
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from assembly_benchmark import benchmark_assembly
from conftest import make_scalar_instance

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_assembly_benchmark_writes_csv(tmp_path):
    out = tmp_path / "assembly.csv"
    proc = run_script(
        "assembly_benchmark.py", "--grid", "2,3", "--N", "2",
        "--substeps", "4", "--reps", "1", "--out", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["M"]) for r in rows] == [2, 3]
    assert all(float(r["ratio"]) > 0.0 for r in rows)


def test_benchmark_assembly_smoke():
    inst = make_scalar_instance(budget=2.0)
    result = benchmark_assembly(inst, N=2, repetitions=3, substeps=2)
    assert set(result.forward_s) == set(result.gradient_s) == {"info", "cov"}
    assert all(t > 0.0 for t in result.forward_s.values())
    assert result.ratio == result.gradient_s["cov"] / result.gradient_s["info"]
    assert result.ratio > 0.0


@pytest.mark.parametrize("bad,message", [
    (["--grid", ","], "--grid ',' names no sensor count"),
    (["--reps", "0"], "--reps must be >= 1, got 0"),
], ids=["empty-grid", "zero-reps"])
def test_assembly_benchmark_rejects_empty_work(tmp_path, bad, message):
    out = tmp_path / "assembly.csv"
    proc = run_script(
        "assembly_benchmark.py", "--grid", "2", "--N", "2", "--substeps",
        "2", "--reps", "1", "--out", str(out), *bad, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def test_output_digests_print_one_stable_line_per_command(tmp_path):
    # certify_ref at one seed: evaluate, then the trajectory bracket; each
    # line digests stdout, stderr and the files the command wrote, and a
    # second run prints the same bytes
    args = ("output_digests.py", "--seeds", "3", "--workloads", "certify_ref")
    runs = [run_script(*args, cwd=tmp_path) for _ in range(2)]
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = [json.loads(line) for line in runs[0].stdout.splitlines()]
    assert [line["argv"][0] for line in lines] == ["evaluate", "bracket"]
    assert [sorted(line["files"]) for line in lines] == \
        [["evaluate.json"], ["bracket.bracket.json"]]
    empty = hashlib.sha256(b"").hexdigest()
    for line in lines:
        assert (line["workload"], line["seed"], line["exit"]) == \
            ("certify_ref", 3, 0)
        assert line["stderr"] == empty and line["stdout"] != empty
        assert all(len(h) == 64 for h in line["files"].values())
    assert list(tmp_path.iterdir()) == []


def test_output_digests_cover_the_commands_no_workload_runs(tmp_path):
    # one tiny run of each, on certify_ref's files at the seed; the refused
    # evaluate and the four refused counts write nothing and say why on
    # stderr
    args = ("output_digests.py", "--seeds", "3", "--workloads",
            "other_commands")
    runs = [run_script(*args, cwd=tmp_path) for _ in range(2)]
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = [json.loads(line) for line in runs[0].stdout.splitlines()]
    assert [(line["argv"][0], sorted(line["files"])) for line in lines] == [
        ("bracket", ["objective.bracket.json"]),
        ("bracket", ["snr.bracket.json", "snr.snr.csv"]),
        ("sweep", ["sweep.csv"]),
        ("gradcheck", []),
        ("solve", ["random.instance.json", "random.report.json",
                   "random.schedule.json"]),
        ("evaluate", []),
        ("evaluate", []),
        ("bracket", []),
        ("sweep", []),
        ("solve", []),
    ]
    assert all(line["workload"] == "other_commands" and line["seed"] == 3
               for line in lines)
    assert [line["exit"] for line in lines[2:]] == [0, 0, 0, 2, 2, 2, 2, 2]
    assert all("--no-timings" in line["argv"]
               for line in lines if line["argv"][0] in ("sweep", "solve"))
    assert all(line["stderr"] != hashlib.sha256(b"").hexdigest()
               for line in lines[5:])
    assert list(tmp_path.iterdir()) == []
