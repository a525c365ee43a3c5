"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload design_ref --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from --seed and written to
perfbench/out/<workload>/.  Then ``infosched.cli.main(argv)`` is called in
this process, one command at a time: a closed loop with one client, --jobs 1,
BLAS on one thread.  A cycle is the workload's command sequence; cycles repeat
while the next one is predicted to end within --seconds (at least one runs).
Every output is checked against reference.json and the method's invariants.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced cycles and reports per-layer metrics per cycle, plus the tracing
overhead; it fails the run if two traced cycles differ in any work count.
--record (with --trace 1) stores the outputs and work counts of this commit in
reference.json instead of checking against it.

Details (provenance, every command, the probe, the spans of a traced run) are
written to perfbench/out/.  Exit status: 0 when every output is correct, 1
when one is not, 2 when the package or an argument is missing.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import bootstrap  # first: pins BLAS threads before numpy loads

import numpy as np

import speed
import tracing
import workloads

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
SETUP_INTERVAL = 0.01     # probe interval while the (short) set-up runs


def git_commit(root: pathlib.Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: pathlib.Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def provenance(args) -> dict:
    return {
        "git_commit": git_commit(bootstrap.ROOT),
        "src_sha256": source_digest(bootstrap.SRC),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas_build(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in bootstrap.BLAS_THREAD_VARS},
        "workload_seed": args.seed,
        "argv": sys.argv,
    }


def setup(workload: str, seed: int, workdir: pathlib.Path):
    """Generate and write the inputs, then load them with the package."""
    from infosched import model

    files, commands, probe_cmd = workloads.WORKLOADS[workload](seed)
    for name, payload in files.items():
        workloads.write_json(workdir / name, payload)
    model.load_instance(workdir / "instance.json")
    if "schedule.json" in files:
        model.load_schedule(workdir / "schedule.json")
    return commands, probe_cmd


def timed_setup(workload: str, seed: int, workdir: pathlib.Path):
    """Import the package, then set up SETUP_REPEATS times.

    Returns nominal seconds of the import plus the median repetition, every
    stretch's nominal seconds, and what setup returned.  Exits with status 2
    when the checkout has no package source.
    """
    speed.probe()                      # numpy.linalg loads outside the timing
    sampler = speed.SpeedSampler(SETUP_INTERVAL)
    with sampler:
        marks = [time.perf_counter()]
        bootstrap.require_package()
        marks.append(time.perf_counter())
        for _ in range(SETUP_REPEATS):
            built = setup(workload, seed, workdir)
            marks.append(time.perf_counter())
    stretches = [sampler.nominal(a, b) for a, b in zip(marks, marks[1:])]
    return stretches[0] + statistics.median(stretches[1:]), stretches, built


def _close(name, got, want, rtol) -> list[str]:
    if want is None:
        return [f"no reference value for {name}"]
    if abs(got - want) > rtol * abs(want):
        return [f"{name} = {got!r}, reference {want!r} (rtol {rtol:g})"]
    return []


def run_command(cmd, reference: dict | None) -> dict:
    """Call the CLI once in this process and judge what it wrote.

    reference None means record mode: values are returned, not compared.
    """
    for name in cmd.outputs:
        pathlib.Path(name).unlink(missing_ok=True)
    from infosched import cli

    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd.argv))
    except SystemExit as exc:              # argparse usage errors
        code = exc.code
    except Exception:                      # a crash is a failed command
        code = None
        err.write(traceback.format_exc())
    seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
    rec = {"kind": cmd.kind, "argv": list(cmd.argv), "exit": code,
           "seconds": seconds, "cpu_seconds": cpu, "problems": [], "values": {},
           "objective": None}
    if code != 0:
        lines = err.getvalue().strip().splitlines() or ["(no message)"]
        rec["problems"].append(f"exit {code}: {lines[-1]}")
        return rec
    try:
        reports = []
        for name in cmd.outputs:
            with open(name, encoding="utf-8") as fh:
                reports.append(json.load(fh))
    except (OSError, ValueError) as exc:
        rec["problems"].append(f"unreadable output: {exc}")
        return rec
    for doc in reports:
        rec["problems"] += [f"non-finite value at {p}"
                            for p in workloads.non_finite(doc)]
    rec["problems"] += cmd.invariants(reports)
    rec["values"] = cmd.values(reports)
    if reference is not None:
        for key, got in rec["values"].items():
            rec["problems"] += _close(key, got, reference.get(key), cmd.rtol)
    if cmd.objective is not None:
        rec["objective"] = cmd.objective(reports)
    return rec


def run_cycle(commands, reference, tracer=None):
    """One pass over the workload's commands with the machine speed sampled."""
    sampler = speed.SpeedSampler()
    t0 = time.perf_counter()
    with sampler, (tracer if tracer is not None else contextlib.nullcontext()):
        records = [run_command(cmd, reference) for cmd in commands]
    t1 = time.perf_counter()
    objectives = [r["objective"] for r in records if r["objective"] is not None]
    return {
        "wall_s": t1 - t0,
        "nominal_s": sampler.nominal(t0, t1),
        "speed_factor": sampler.factor(),
        "ok": all(not r["problems"] for r in records),
        "objective": objectives[-1] if objectives else None,
        "traced": tracer is not None,
        "commands": records,
    }, sampler


def measure(commands, reference, seconds: float, trace: bool):
    """Closed loop of cycles (untraced/traced pairs when tracing).

    Returns the cycle records and, per traced cycle, its tracer and sampler.
    """
    cycles, traced = [], []
    t0 = time.perf_counter()
    while True:
        u0 = time.perf_counter()
        cycles.append(run_cycle(commands, reference)[0])
        if trace:
            tracer = tracing.Tracer()
            cycle, sampler = run_cycle(commands, reference, tracer)
            cycles.append(cycle)
            traced.append((tracer, sampler))
        unit = time.perf_counter() - u0
        if time.perf_counter() - t0 + unit > seconds:
            return cycles, traced


def end_to_end(setup_s, cycles) -> dict:
    passed = [c for c in cycles if c["ok"]] or cycles
    objectives = [c["objective"] for c in passed if c["objective"] is not None]
    return {
        "setup_s": (setup_s, "s"),
        "cycle_s": (statistics.median(c["nominal_s"] for c in passed), "s"),
        "objective_norm": (statistics.median(objectives) if objectives else None,
                           "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def per_layer(cycles, traced) -> tuple[dict, list[str]]:
    per_cycle = [tracer.layer_metrics(sampler) for tracer, sampler in traced]
    problems = []
    for k in tracing.WORK_COUNTS:
        seen = {m[k] for m in per_cycle}
        if len(seen) > 1:
            problems.append(f"work count {k} differs between traced cycles: "
                            f"{sorted(seen)}")
    metrics = {k: (statistics.fmean(m[k] for m in per_cycle)
                   if tracing.PER_LAYER_UNITS[k] == "s" else per_cycle[0][k])
               for k in per_cycle[0]}
    on = statistics.median(c["nominal_s"] for c in cycles if c["traced"])
    off = statistics.median(c["nominal_s"] for c in cycles if not c["traced"])
    metrics["trace.overhead_frac"] = on / off - 1.0
    return ({k: (metrics[k], unit) for k, unit in tracing.PER_LAYER_UNITS.items()},
            problems)


def record_reference(name, cycles, per_layer_metrics, probe_rec) -> None:
    ref = workloads.load_reference()
    entry = {}
    for rec in cycles[0]["commands"]:
        entry.update(rec["values"])
    entry["counts"] = {k: per_layer_metrics[k][0] for k in tracing.WORK_COUNTS}
    if probe_rec is not None:
        entry["probe"] = {"exit": probe_rec["exit"], "problems": probe_rec["problems"]}
    ref[name] = entry
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write this commit's outputs to reference.json")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.record and not args.trace:
        ap.error("--record needs --trace 1 (it stores work counts)")
    reference = None if args.record else \
        workloads.load_reference().get(args.workload, {})

    workdir = OUT_DIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_s, setup_stretches, (commands, probe_cmd) = timed_setup(
        args.workload, args.seed, workdir)

    os.chdir(workdir)
    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    probe_rec = None
    if probe_cmd is not None:
        probe_rec = run_command(probe_cmd, reference)
        verdict = "; ".join(probe_rec["problems"]) or "ok"
        print(f"probe: {' '.join(probe_cmd.argv)}: {verdict}")

    cycles, traced = measure(commands, reference, args.seconds, bool(args.trace))
    for i, c in enumerate(cycles):
        print(f"cycle {i}: wall {c['wall_s']:.3f} s, nominal {c['nominal_s']:.3f} s"
              f"{', traced' if c['traced'] else ''}{'' if c['ok'] else ', FAILED'}")
    failed = [r for c in cycles for r in c["commands"] if r["problems"]]
    for r in failed:
        print(f"failed: {r['kind']}: {'; '.join(r['problems'])}")
    if args.trace:
        metrics, problems = per_layer(cycles, traced)
        for p in problems:
            print(f"failed: {p}")
    else:
        metrics, problems = end_to_end(setup_s, cycles), []
    correct = not failed and not problems

    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "setup_stretches_s": setup_stretches,
                   "probe": probe_rec, "cycles": cycles,
                   "problems": problems,
                   "metrics": {k: v for k, (v, _) in metrics.items()}},
                  fh, indent=1)
    if args.trace:
        spans = {f"c{i}_{k}": v for i, (t, _) in enumerate(traced)
                 for k, v in t.arrays().items()}
        np.savez_compressed(f"{stem}.spans.npz", **spans)
        if args.record and correct:
            record_reference(args.workload, cycles, metrics, probe_rec)

    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(c["commands"]) for c in cycles),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
