"""Count-determinism self-test: two traced runs must agree on every work count.

    python3 perfbench/selftest.py [--seed 0] [--workload NAME ...]

Runs ``run.py --trace 1`` twice per workload with the same seed, one after
the other, and compares the work counts of the two results exactly.  It also
prints each count next to the value recorded from the seed commit in
reference.json; those may differ after a change that removes work (a count
that moves is the change's claim, to be named in its issue), but two runs of
one commit may not.  Exit status 0 when every workload repeats its counts.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

import tracing
import workloads

RUN = pathlib.Path(__file__).resolve().with_name("run.py")


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload}: traced run failed:\n{proc.stdout}{proc.stderr}")
    return {k: result["metrics"][k]["value"] for k in tracing.WORK_COUNTS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", nargs="*", default=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    reference = workloads.load_reference()
    ok = True
    for name in args.workload:
        first = traced_counts(name, args.seed)
        second = traced_counts(name, args.seed)
        recorded = reference.get(name, {}).get("counts", {})
        for k in tracing.WORK_COUNTS:
            same = first[k] == second[k]
            ok = ok and same
            if first[k] or second[k] or recorded.get(k):
                print(f"{name:14s} {k:32s} {first[k]!s:>10} {second[k]!s:>10} "
                      f"{'repeats' if same else 'DIFFERS'}  "
                      f"seed commit {recorded.get(k)}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
