"""Digests of every benchmark workload command's outputs, one JSON line each.

    PYTHONPATH=src python scripts/output_digests.py --seeds 3 41

For each workload of perfbench/workloads.py and each seed, the inputs are
generated into a temporary directory and every command of the workload, then
its probe (the general_dense solve), is run through infosched.cli.main in
that directory, one at a time, with BLAS on one thread.  A solve gets
--no-timings, so its report has no wall-time field.  Then, under the name
other_commands, one tiny run of each command no workload runs, on
certify_ref's files at the seed: bracket --objective-only and --snr-sweep,
sweep, gradcheck, solve --random and a refused evaluate, each with
--no-timings where it is offered, and four runs refused for a count below
its least: evaluate --runs 0, bracket --surrogate-substeps 0, sweep
--instances 0 and solve --N 0.  Each command prints one line: the
workload, the seed, the argv, the exit code, and the SHA-256 of stdout, of
stderr and of each file the command wrote.  The package is the infosched on
PYTHONPATH, so running the script against two source trees and diffing the
output checks that a change leaves every output byte-identical.  Nothing
under perfbench/ is written.  --workloads picks a subset.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads its BLAS

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile
from functools import partial

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

from infosched import cli  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list, workdir: pathlib.Path, inputs: set) -> dict:
    """Call the CLI once in workdir, then digest and remove what it wrote."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:              # argparse usage errors
        code = exc.code
    except Exception as exc:               # a crash is a digest of its own
        code = f"crash: {type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
    files = {}
    for path in sorted(workdir.iterdir()):
        if path.name not in inputs:
            files[path.name] = _sha(path.read_bytes())
            path.unlink()
    return {"exit": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "files": files}


def workload_commands(workload: str, seed: int):
    """The input files and argvs of the workload at seed, probe last."""
    files, commands, probe = workloads.WORKLOADS[workload](seed)
    argvs = [list(cmd.argv) + (["--no-timings"] if cmd.argv[0] == "solve"
                               else [])
             for cmd in commands + ([probe] if probe is not None else [])]
    return files, argvs


def other_commands(seed: int):
    """certify_ref's input files at seed and one tiny argv of each command
    that no workload runs."""
    files, _, _ = workloads.WORKLOADS["certify_ref"](seed)
    pair = ["--instance", "instance.json", "--schedule", "schedule.json"]
    small = pair + ["--runs", "4", "--n-eval", "20"]
    tiny = ["--N", "2", "--T", "1", "--substeps", "4", "--max-iters", "2"]
    return files, [
        ["bracket", *small, "--objective-only", "--out", "objective"],
        ["bracket", *small, "--snr-sweep", "1e-1..1e1,3", "--out", "snr"],
        ["sweep", "--grid", "2", "--instances", "1", "--runs", "2",
         "--n-eval", "10", "--seed", str(seed), *tiny, "--no-timings",
         "--out", "sweep.csv"],
        ["gradcheck", "--N", "2", "--seed", str(seed)],
        ["solve", "--random", f"n=2,M=3,seed={seed}", *tiny, "--no-timings",
         "--out", "random"],
        ["evaluate", *pair, "--seed", "-1"],
        # a count below its least, refused before any work
        ["evaluate", *pair, "--runs", "0"],
        ["bracket", *pair, "--surrogate-substeps", "0"],
        ["sweep", "--instances", "0", "--no-timings", "--out", "sweep.csv"],
        ["solve", "--random", "n=2,M=3", "--N", "0", "--no-timings"],
    ]


SOURCES = {name: partial(workload_commands, name)
           for name in workloads.WORKLOADS}
SOURCES["other_commands"] = other_commands


def digests(source: str, seed: int):
    """One record per command of the source at seed, in order."""
    files, argvs = SOURCES[source](seed)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        for name, payload in files.items():
            workloads.write_json(workdir / name, payload)
        for argv in argvs:
            yield {"workload": source, "seed": seed, "argv": argv,
                   **run(argv, workdir, set(files))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", choices=sorted(SOURCES),
                    default=list(SOURCES))
    args = ap.parse_args(argv)
    for workload in args.workloads:
        for seed in args.seeds:
            for record in digests(workload, seed):
                print(json.dumps(record, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
