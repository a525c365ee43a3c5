"""Gradient-assembly cost of the two surrogates as sensor count grows.

The information-form surrogate folds all sensors into one precomputed
per-stage increment, so its per-substep work is independent of M; the
covariance-form surrogate contracts the rank-p gain factors of all its
sensors at every stage point (one batched riccati.stacked_gains call, then
M p n^2 products in its rate and adjoint), whose cost grows with M.  This
script times objective+gradient assembly for both at equal rate tables and
reports the cov/info median ratio per sensor count.  An empty --grid or
--reps below 1 is a usage error (exit 2).
"""

import argparse
import csv

from infosched.model import InstanceSpec, random_instance
from infosched.optimize import benchmark_assembly


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
