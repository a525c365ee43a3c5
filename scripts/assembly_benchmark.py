"""Gradient-assembly cost of the two surrogates as sensor count grows.

The information-form surrogate folds all sensors into one precomputed
per-stage increment, so its per-substep work is independent of M; the
covariance-form surrogate contracts the rank-p gain factors of all its
sensors at every stage point (riccati.cov_gains: with p = 1, one GEMM of
the flat sensor rows, then M p n^2 products in its rate and adjoint),
whose cost grows with M.  This
script times objective+gradient assembly for both at equal rate tables and
reports the cov/info median ratio per sensor count.  An empty --grid or
--reps below 1 is a usage error (exit 2).
"""

import argparse
import csv
import time
from types import SimpleNamespace

import numpy as np

from infosched.model import InstanceSpec, random_instance
from infosched.optimize import (
    ShootingProblem,
    centered_rates,
    objective,
    objective_and_gradient,
)
from infosched.surrogate import KINDS


def benchmark_assembly(instance, N=30, repetitions=10, substeps=10):
    """Wall-time comparison of objective_and_gradient for both kinds.

    Both kinds are evaluated at the identical rate table, the centered
    point.  One untimed warmup per kind precedes the measured
    repetitions; runs are sequential and single-threaded.  The kinds
    alternate inside each repetition, so the two sides of the ratio are
    sampled at the same host speed.  Returns the per-kind medians
    forward_s (objective) and gradient_s (objective_and_gradient), and
    ratio, the cov / info gradient median.
    """
    rates = centered_rates(instance.polytope, N)
    problems = {kind: ShootingProblem(instance=instance, N=N, kind=kind,
                                      substeps=substeps) for kind in KINDS}
    samples = {kind: ([], []) for kind in KINDS}
    for problem in problems.values():
        objective_and_gradient(problem, rates)   # warmup, excluded
    for _ in range(repetitions):
        for kind, problem in problems.items():
            for fn, seconds in zip((objective, objective_and_gradient),
                                   samples[kind]):
                t0 = time.perf_counter()
                fn(problem, rates)
                seconds.append(time.perf_counter() - t0)
    forward_s = {k: float(np.median(f)) for k, (f, _) in samples.items()}
    gradient_s = {k: float(np.median(g)) for k, (_, g) in samples.items()}
    return SimpleNamespace(forward_s=forward_s, gradient_s=gradient_s,
                           ratio=gradient_s["cov"] / gradient_s["info"])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid", default="30,60,100",
                    help="comma-separated sensor counts")
    ap.add_argument("--n", type=int, default=5, help="state dimension")
    ap.add_argument("--N", type=int, default=30, help="control intervals")
    ap.add_argument("--substeps", type=int, default=10)
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--seed", type=int, default=800)
    ap.add_argument("--out", help="optional CSV path")
    args = ap.parse_args()

    grid = [int(x) for x in args.grid.split(",") if x.strip()]
    if not grid:
        ap.error(f"--grid {args.grid!r} names no sensor count")
    if args.reps < 1:
        ap.error(f"--reps must be >= 1, got {args.reps}")
    rows = []
    print(f"{'M':>5} {'info fwd':>10} {'info grad':>10} {'cov fwd':>10} "
          f"{'cov grad':>10} {'ratio':>7}")
    for M in grid:
        inst = random_instance(InstanceSpec(n=args.n, M=M, p=1,
                                            seed=args.seed + M,
                                            T=3.0, budget=5.0))
        res = benchmark_assembly(inst, N=args.N, repetitions=args.reps,
                                 substeps=args.substeps)
        print(f"{M:>5} {res.forward_s['info'] * 1e3:>9.2f}m "
              f"{res.gradient_s['info'] * 1e3:>9.2f}m "
              f"{res.forward_s['cov'] * 1e3:>9.2f}m "
              f"{res.gradient_s['cov'] * 1e3:>9.2f}m {res.ratio:>7.2f}")
        rows.append({
            "M": M,
            "info_forward_s": res.forward_s["info"],
            "info_gradient_s": res.gradient_s["info"],
            "cov_forward_s": res.forward_s["cov"],
            "cov_gradient_s": res.gradient_s["cov"],
            "ratio": res.ratio,
        })

    ratios = [row["ratio"] for row in rows]
    trend = "nondecreasing" if ratios == sorted(ratios) else "NOT monotone"
    print(f"median cov/info gradient ratio trend over M: {trend}")
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: (repr(v) if isinstance(v, float) else v)
                                 for k, v in row.items()})
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
