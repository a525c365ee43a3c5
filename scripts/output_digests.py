"""Digests of every benchmark workload command's outputs, one JSON line each.

    PYTHONPATH=src python scripts/output_digests.py --seeds 3 41

For each workload of perfbench/workloads.py and each seed, the inputs are
generated into a temporary directory and every command of the workload, then
its probe (the general_dense solve), is run through infosched.cli.main in
that directory, one at a time, with BLAS on one thread.  A solve gets
--no-timings, so its report has no wall-time field.  Each command prints one
line: the workload, the seed, the argv, the exit code, and the SHA-256 of
stdout, of stderr and of each file the command wrote.  The package is the
infosched on PYTHONPATH, so running the script against two source trees and
diffing the output checks that a change leaves every output byte-identical.
Nothing under perfbench/ is written.  --workloads picks a subset.
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


def digests(workload: str, seed: int):
    """One record per command of the workload at seed, probe last."""
    files, commands, probe = workloads.WORKLOADS[workload](seed)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        for name, payload in files.items():
            workloads.write_json(workdir / name, payload)
        for cmd in commands + ([probe] if probe is not None else []):
            argv = list(cmd.argv)
            if argv[0] == "solve":
                argv.append("--no-timings")
            yield {"workload": workload, "seed": seed, "argv": argv,
                   **run(argv, workdir, set(files))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", choices=sorted(workloads.WORKLOADS),
                    default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    for workload in args.workloads:
        for seed in args.seeds:
            for record in digests(workload, seed):
                print(json.dumps(record, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
