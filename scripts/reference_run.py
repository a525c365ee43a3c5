"""Solve and certify the reference configuration end to end.

Designs a schedule on the 5-state, 30-sensor benchmark instance (P0 = 100 I,
Q = I, T = 3, per-stage budget 5, terminal trace objective), certifies it
with the two-sided bracket against Monte Carlo, then reuses the same
schedule across a measurement-noise sweep.  Writes schedule, solver report,
certificate, and sweep CSV into --out-dir.

Desk-scale by default (about a minute); raise --runs/--max-iters for
tighter statistics.
"""

import argparse
import pathlib
import time

import numpy as np

from infosched.bounds import (
    save_bracket_report,
    snr_sweep,
    trajectory_bracket,
    write_snr_csv,
)
from infosched.model import (
    InstanceSpec,
    _dump_json,
    random_instance,
    save_instance,
    save_schedule,
)
from infosched.optimize import ShootingProblem, SolveOptions, solve


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="reference_out")
    ap.add_argument("--seed", type=int, default=0, help="instance seed")
    ap.add_argument("--mc-seed", type=int, default=500)
    ap.add_argument("--runs", type=int, default=100)
    ap.add_argument("--n-eval", type=int, default=300)
    ap.add_argument("--N", type=int, default=30)
    ap.add_argument("--substeps", type=int, default=10)
    ap.add_argument("--max-iters", type=int, default=200)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--skip-sweep", action="store_true")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    inst = random_instance(InstanceSpec(n=5, M=30, p=1, seed=args.seed,
                                        T=3.0, budget=5.0))
    save_instance(out / "instance.json", inst)

    problem = ShootingProblem(instance=inst, N=args.N, kind="info",
                              substeps=args.substeps)
    t0 = time.perf_counter()
    report = solve(problem, options=SolveOptions(max_iters=args.max_iters))
    tr = float(np.trace(inst.system.P0))
    print(f"solve: {time.perf_counter() - t0:.1f}s "
          f"iterations={report.iterations} converged={report.converged} "
          f"normalized objective={report.objective / tr:.6g}")
    save_schedule(out / "schedule.json", report.schedule)
    _dump_json(out / "solve_report.json", report.to_dict())

    t0 = time.perf_counter()
    cert = trajectory_bracket(inst, report.schedule, n_runs=args.runs,
                              n_eval=args.n_eval, seed=args.mc_seed,
                              n_jobs=args.jobs)
    print(f"certificate: {time.perf_counter() - t0:.1f}s "
          f"contained={cert.contained} "
          f"trajectory_contained={cert.trajectory_contained}")
    print(f"  normalized: {cert.normalized_lower:.6g} <= "
          f"{cert.normalized_mean:.6g} <= {cert.normalized_upper:.6g} "
          f"(width {cert.normalized_width:.3g})")
    save_bracket_report(out / "bracket.json", cert)

    if not args.skip_sweep:
        t0 = time.perf_counter()
        sweep = snr_sweep(inst, report.schedule, n_runs=args.runs,
                          n_eval=args.n_eval, seed=args.mc_seed + 100,
                          n_jobs=args.jobs)
        write_snr_csv(out / "snr_sweep.csv", sweep)
        print(f"noise sweep: {time.perf_counter() - t0:.1f}s, "
              f"{sum(r.contained for _, r in sweep)}/{len(sweep)} contained")
        for r, rep in sweep:
            print(f"  r_scale={r:8.4g} width={rep.normalized_width:.3e} "
                  f"contained={rep.contained}")

    print(f"outputs in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
