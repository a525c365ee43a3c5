"""Command-line front end.

Subcommands:
  solve      design a rate schedule for an instance (info surrogate default)
  evaluate   Monte Carlo objective of a given schedule
  bracket    two-sided certificate, optionally swept over noise scalings
  sweep      desk-scale benchmark sweeps over sensor count or state dimension
  gradcheck  adjoint gradient vs central differences

Exit codes: 0 success, 1 failed numeric check or solver failure, 2 usage or
malformed input.  All outputs are deterministic given inputs, flags, and
seeds; wall-time fields are the one exception and can be zeroed with
--no-timings where offered.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys

import numpy as np

from . import bounds as bounds_mod
from .model import (
    InstanceSpec,
    ValidationError,
    _dump_json,
    _generator,
    load_instance,
    load_schedule,
    random_instance,
    save_instance,
    save_schedule,
    validate_schedule,
)
from .montecarlo import mc_objective, save_mc_report
from .optimize import (
    ProjectionError,
    ShootingProblem,
    SolveOptions,
    centered_rates,
    gradient_check,
    solve,
)
from .riccati import PositiveDefinitenessError

GRADCHECK_TOL = 1e-6


def _parse_random_spec(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValidationError(
                f"bad --random entry {part!r}, expected key=value"
            )
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in {"n", "M", "p", "seed"}:
            raise ValidationError(
                f"unknown --random key {key!r}, expected n, M, p, seed"
            )
        try:
            out[key] = int(value)
        except ValueError as exc:
            raise ValidationError(
                f"--random value for {key} is not an integer: {value!r}"
            ) from exc
    for required in ("n", "M"):
        if required not in out:
            raise ValidationError(f"--random needs {required}=...")
    return out


def _parse_snr_spec(text: str) -> np.ndarray:
    # "1e-2..1e2,9" -> nine log-spaced points
    try:
        span, count = text.rsplit(",", 1)
        lo, hi = span.split("..")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ValidationError(
            f"bad --snr-sweep {text!r}, expected 'lo..hi,count'"
        ) from exc
    if not 0.0 < lo < hi < np.inf or count < 2:   # NaN fails every test
        raise ValidationError(f"bad --snr-sweep range {text!r}")
    return np.logspace(np.log10(lo), np.log10(hi), count)


def _instance_from_args(args) -> "Instance":
    if args.instance:
        return load_instance(args.instance)
    if args.random:
        spec_kw = _parse_random_spec(args.random)
        return random_instance(InstanceSpec(
            n=spec_kw["n"], M=spec_kw["M"], p=spec_kw.get("p", 1),
            seed=spec_kw.get("seed", 0), T=args.T, budget=args.budget,
        ))
    raise ValidationError("provide --instance PATH or --random SPEC")


def _per_trace(x: float, P0: np.ndarray) -> float:
    """x / trace(P0), every command's normalized value.  A trace past the
    largest float is taken in units of P0's largest diagonal entry s, as
    (x / s) / trace(P0 / s), so a prior near it normalizes without
    overflow."""
    with np.errstate(over="ignore"):
        tr = float(np.trace(P0))
    if np.isfinite(tr):
        return x / tr
    s = float(np.diag(P0).max())
    return (x / s) / float(np.trace(P0 / s))


def cmd_solve(args) -> int:
    options = SolveOptions(max_iters=args.max_iters, grad_tol=args.grad_tol)
    instance = _instance_from_args(args)
    problem = ShootingProblem(
        instance=instance, N=args.N, kind=args.kind,
        substeps=args.substeps,
    )
    report = solve(problem, options=options)
    norm = _per_trace(report.objective, instance.system.P0)
    feas = validate_schedule(report.schedule, instance.polytope)
    print(f"kind={args.kind} iterations={report.iterations} "
          f"converged={report.converged} pg_norm={report.pg_norm:.3e}")
    print(f"objective={report.objective:.9g} normalized={norm:.9g} "
          f"feasible={feas.feasible}")
    if args.out:
        save_schedule(f"{args.out}.schedule.json", report.schedule)
        _dump_json(f"{args.out}.report.json",
                   report.to_dict(include_timings=not args.no_timings))
        if args.random:
            save_instance(f"{args.out}.instance.json", instance)
    return 0


def cmd_evaluate(args) -> int:
    instance = load_instance(args.instance)
    schedule = load_schedule(args.schedule)
    est = mc_objective(
        instance, schedule, n_runs=args.runs, n_eval=args.n_eval,
        seed=args.seed,
    )
    mean, stderr = (_per_trace(x, instance.system.P0)
                    for x in (est.mean, est.stderr))
    print(f"runs={est.n_runs} mean={est.mean:.9g} stderr={est.stderr:.3g}")
    print(f"normalized mean={mean:.9g} stderr={stderr:.3g}")
    if args.out:
        save_mc_report(args.out, est)
    return 0


def cmd_bracket(args) -> int:
    scales = _parse_snr_spec(args.snr_sweep) if args.snr_sweep else None
    instance = load_instance(args.instance)
    schedule = load_schedule(args.schedule)
    kwargs = dict(n_runs=args.runs, n_eval=args.n_eval,
                  surrogate_substeps=args.surrogate_substeps, seed=args.seed)
    if args.objective_only:
        report = bounds_mod.objective_bracket(instance, schedule, **kwargs)
    else:
        report = bounds_mod.trajectory_bracket(instance, schedule, **kwargs)
    print(f"J_lower={report.j_lower:.9g} mc_mean={report.mc.mean:.9g} "
          f"J_upper={report.j_upper:.9g}")
    print(f"normalized: lower={report.normalized_lower:.6g} "
          f"mean={report.normalized_mean:.6g} "
          f"upper={report.normalized_upper:.6g} "
          f"width={report.normalized_width:.6g}")
    print(f"contained={report.contained}"
          + ("" if report.trajectory_contained is None
             else f" trajectory_contained={report.trajectory_contained}"))
    ok = report.contained and (report.trajectory_contained is not False)
    if args.out:
        bounds_mod.save_bracket_report(f"{args.out}.bracket.json", report)
    if scales is not None:
        sweep = bounds_mod.snr_sweep(
            instance, schedule, r_scales=scales, n_runs=args.runs,
            n_eval=args.n_eval,
            surrogate_substeps=args.surrogate_substeps, seed=args.seed,
        )
        for r, rep in sweep:
            print(f"r_scale={r:.4g} contained={rep.contained} "
                  f"width={rep.normalized_width:.4g}")
        ok = ok and all(rep.contained for _, rep in sweep)
        if args.out:
            bounds_mod.write_snr_csv(f"{args.out}.snr.csv", sweep)
    return 0 if ok else 1


def _sweep_points(args) -> list[tuple[str, int]]:
    if args.grid:
        try:
            points = [int(x) for x in args.grid.split(",") if x.strip()]
        except ValueError as exc:
            raise ValidationError(f"bad --grid {args.grid!r}") from exc
    elif args.sweep == "sensors":
        points = [10, 20, 40, 60, 80, 100] if args.full else [10, 20, 40]
    else:
        points = [2, 4, 8, 12, 16, 20] if args.full else [2, 4, 8]
    if not points:
        raise ValidationError(f"--grid {args.grid!r} names no point")
    return [(args.sweep, pt) for pt in points]


def _sweep_instance(kind: str, point: int, idx: int, args):
    n, M = (5, point) if kind == "sensors" else (point, 30)
    return random_instance(InstanceSpec(
        n=n, M=M, p=1, seed=args.seed + 1000 * idx + point, T=args.T,
        budget=args.budget,
    ))


def cmd_sweep(args) -> int:
    for flag, value in (("--instances", args.instances), ("--runs", args.runs),
                        ("--n-eval", args.n_eval)):
        if value < 1:
            raise ValidationError(f"{flag} must be >= 1, got {value}")
    options = SolveOptions(max_iters=args.max_iters, grad_tol=args.grad_tol)
    points = _sweep_points(args)
    if args.full:
        print("warning: --full grids can take hours",
              file=sys.stderr)
    rows = []
    for sweep_kind, pt in points:
        for idx in range(args.instances):
            instance = _sweep_instance(sweep_kind, pt, idx, args)
            for kind in ("info", "cov"):
                problem = ShootingProblem(instance=instance, N=args.N,
                                          kind=kind, substeps=args.substeps)
                report = solve(problem, options=options)
                est = mc_objective(
                    instance, report.schedule, n_runs=args.runs,
                    n_eval=args.n_eval, seed=args.seed,
                )
                objective, mean, stderr = (
                    _per_trace(x, instance.system.P0)
                    for x in (report.objective, est.mean, est.stderr))
                t = report.to_dict(
                    include_timings=not args.no_timings)["timings"]
                rows.append({
                    "sweep": sweep_kind,
                    "point": pt,
                    "instance": idx,
                    "kind": kind,
                    "iterations": report.iterations,
                    "converged": int(report.converged),
                    "objective_norm": repr(objective),
                    "mc_mean_norm": repr(mean),
                    "mc_stderr_norm": repr(stderr),
                    "forward_s": t["forward_s"],
                    "gradient_s": t["gradient_assembly_s"],
                    "projection_s": t["projection_s"],
                    "total_s": t["total_s"],
                })
                print(f"{sweep_kind}={pt} instance={idx} kind={kind} "
                      f"iters={report.iterations} "
                      f"mc_norm={mean:.6g}")
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    # per-point medians and interquartile ranges on stdout
    for sweep_kind, pt in points:
        for kind in ("info", "cov"):
            vals = [float(r["mc_mean_norm"]) for r in rows
                    if r["point"] == pt and r["kind"] == kind]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                iqr = q[2] - q[0]
            else:
                iqr = 0.0
            print(f"summary {sweep_kind}={pt} kind={kind} "
                  f"median={med:.6g} iqr={iqr:.3g}")
    return 0


def _scalar_gradcheck_instance():
    from .model import (
        Instance, ResourcePolytope, Sensor, SystemModel, WeightSpec,
    )

    system = SystemModel(n=1, A=np.zeros((1, 1)), Q=np.zeros((1, 1)),
                         m0=np.zeros(1), P0=np.ones((1, 1)), T=1.0)
    sensor = Sensor(H=np.ones((1, 1)), R=np.ones((1, 1)))
    polytope = ResourcePolytope(C=np.ones((1, 1)), b=np.ones(1))
    weights = WeightSpec(W_stages=None, W_T=np.ones((1, 1)))
    return Instance(system=system, sensors=(sensor,), polytope=polytope,
                    weights=weights)


def cmd_gradcheck(args) -> int:
    if args.instance or args.random:
        instance = _instance_from_args(args)
        N = args.N
    else:
        instance = _scalar_gradcheck_instance()
        N = min(args.N, 2)
    rng = _generator(args.seed)
    kinds = ("info", "cov") if args.kind == "both" else (args.kind,)
    worst = 0.0
    ok = True
    for kind in kinds:
        problem = ShootingProblem(instance=instance, N=N, kind=kind,
                                  substeps=args.substeps)
        # interior random point: entries in [0.2, 0.8] * largest uniform rate
        base = centered_rates(instance.polytope, N)
        t_star = 2.0 * base[0, 0]
        rates = t_star * rng.uniform(0.2, 0.8, size=base.shape)
        err = gradient_check(problem, rates, fd_step=args.fd_step)
        worst = max(worst, err)
        passed = err <= GRADCHECK_TOL
        ok = ok and passed
        print(f"kind={kind} max_rel_err={err:.3e} "
              f"{'PASS' if passed else 'FAIL'} (tol {GRADCHECK_TOL:g})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infosched",
        description="Design and certify sensor transmission-rate schedules "
                    "for continuous-discrete Kalman filtering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_instance(p):
        p.add_argument("--instance", help="instance JSON path")
        p.add_argument("--random",
                       help="random instance spec, e.g. n=5,M=30,p=1,seed=7")
        p.add_argument("--T", type=float, default=3.0,
                       help="horizon for --random instances")
        p.add_argument("--budget", type=float, default=5.0,
                       help="per-stage total-rate budget for --random "
                            "instances (0 collapses the set to the zero "
                            "schedule)")

    p = sub.add_parser("solve", help="optimize a schedule")
    add_common_instance(p)
    p.add_argument("--kind", choices=("info", "cov"), default="info")
    p.add_argument("--N", type=int, default=30, help="control intervals")
    p.add_argument("--substeps", type=int, default=10,
                   help="integrator steps per stage (cov); for info only the "
                        "quadrature grid of running weights")
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--grad-tol", type=float, default=1e-6)
    p.add_argument("--out", help="output prefix for schedule/report JSON")
    p.add_argument("--no-timings", action="store_true",
                   help="zero wall-time fields for byte-reproducible reports")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="Monte Carlo objective of a schedule")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--n-eval", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="MC report JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bracket", help="two-sided certificate of a schedule")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--n-eval", type=int, default=300)
    p.add_argument("--surrogate-substeps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--objective-only", action="store_true",
                   help="skip nodewise trajectory margins")
    p.add_argument("--snr-sweep", metavar="LO..HI,COUNT",
                   help="also sweep measurement-noise scale, e.g. 1e-2..1e2,9")
    p.add_argument("--out", help="output prefix")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("sweep", help="benchmark sweeps at desk scale")
    p.add_argument("--sweep", choices=("sensors", "dimension"),
                   default="sensors")
    p.add_argument("--grid", help="comma-separated points, e.g. 10,20,40")
    p.add_argument("--instances", type=int, default=3)
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--N", type=int, default=30)
    p.add_argument("--T", type=float, default=3.0)
    p.add_argument("--budget", type=float, default=5.0)
    p.add_argument("--n-eval", type=int, default=300)
    p.add_argument("--substeps", type=int, default=10)
    p.add_argument("--max-iters", type=int, default=150)
    p.add_argument("--grad-tol", type=float, default=1e-6)
    p.add_argument("--full", action="store_true",
                   help="full-size benchmark grids (slow)")
    p.add_argument("--no-timings", action="store_true")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck",
                       help="adjoint gradient vs central differences")
    add_common_instance(p)
    p.add_argument("--kind", choices=("info", "cov", "both"), default="both")
    p.add_argument("--N", type=int, default=10)
    p.add_argument("--substeps", type=int, default=10)
    p.add_argument("--fd-step", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PositiveDefinitenessError, ProjectionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
