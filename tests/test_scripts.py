"""Smoke runs of the scripts under scripts/ at tiny sizes."""

import csv
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_reference_run_writes_its_outputs(tmp_path):
    out = tmp_path / "ref"
    proc = run_script(
        "reference_run.py", "--runs", "4", "--n-eval", "20", "--N", "4",
        "--substeps", "2", "--max-iters", "3", "--skip-sweep",
        "--out-dir", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    names = {"instance.json", "schedule.json", "solve_report.json",
             "bracket.json"}
    assert {p.name for p in out.iterdir()} == names
    for name in names:
        text = (out / name).read_text(encoding="utf-8")
        assert text.endswith("}\n")
        json.loads(text)
    report = json.loads((out / "solve_report.json").read_text())
    assert report["iterations"] <= 3
    bracket = json.loads((out / "bracket.json").read_text())
    assert bracket["mc"]["n_runs"] == 4
    assert len(bracket["times"]) == 21


def test_assembly_benchmark_writes_csv(tmp_path):
    out = tmp_path / "assembly.csv"
    proc = run_script(
        "assembly_benchmark.py", "--grid", "2,3", "--N", "2",
        "--substeps", "2", "--reps", "1", "--out", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["M"]) for r in rows] == [2, 3]
    assert all(float(r["ratio"]) > 0.0 for r in rows)
