"""The four benchmark workloads: generated inputs, CLI commands, output checks.

Every input file is generated here with numpy alone, so a change to the
package cannot change what the benchmark feeds it.  Each workload is one fixed
problem.  The two certification workloads present it in a state basis drawn
from the workload seed (an orthogonal change of coordinates), which changes
every matrix the program reads but neither the arrivals it samples nor any
number it reports beyond roundoff.  The two design workloads ignore the seed:
the projected-gradient path is chaotic in roundoff (on the reference problem
a change of basis moved the converged solve between 209 and 327 iterations),
so any seed-dependent presentation would turn input spread into timing spread.

Every check compares an output with a value recorded from the seed commit
(``reference.json``) or with an invariant of the method (convergence,
feasibility, containment).  Tolerances admit roundoff and reject wrong
answers: ``VALUE_RTOL`` is far above the basis-change roundoff and far below
the Monte Carlo standard error; ``OBJECTIVE_RTOL`` admits a different descent
path that stops at the same optimum.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")

N_STAGES = 30
HORIZON = 3.0
MC_RUNS = "100"
MC_SEED = "0"          # fixed, so the reference values hold for every seed
COV_MAX_ITERS = "3"
VALUE_RTOL = 1e-8      # Monte Carlo means and surrogate bounds
OBJECTIVE_RTOL = 1e-6  # converged surrogate objective
FEAS_TOL = 1e-9        # the package's own feasibility tolerance

GENERAL_DENSE_KEY = 1  # seeds the fixed general_dense problem
SCHEDULE_KEY = 2       # seeds the fixed sparse schedules
BASIS_KEY = 3          # with the workload seed, seeds the change of basis


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def _sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + np.swapaxes(x, -1, -2))


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _sensors(rng, M: int, p: int, n: int) -> list[dict]:
    # orthonormal rows; R with a random eigenbasis and eigenvalues in [1, 10]
    out = []
    for _ in range(M):
        q, _ = np.linalg.qr(rng.standard_normal((p, n)).T)
        U = _random_orthogonal(rng, p)
        R = U @ np.diag(rng.uniform(1.0, 10.0, p)) @ U.T
        out.append({"H": q.T, "R": _sym(R)})
    return out


def _instance(A, sensors, C, b, W_stages) -> dict:
    n = A.shape[0]
    return {
        "n": n, "T": HORIZON, "A": A, "Q": np.eye(n), "P0": 100.0 * np.eye(n),
        "m0": np.zeros(n), "sensors": sensors,
        "constraints": {"C": C, "b": np.asarray(b, dtype=float)},
        "weights": {"W_stages": W_stages, "WT": np.eye(n)},
    }


def reference_instance() -> dict:
    """The 5-state, 30-sensor reference problem: one budget row of 5,
    terminal trace weight.  Same draws as the package's random instance
    recipe at seed 0, so it is the problem the ROADMAP baseline measured."""
    n, M = 5, 30
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    V = _random_orthogonal(rng, n)
    mu = np.concatenate([rng.uniform(-1.0, -0.1, 3), rng.uniform(0.1, 1.0, 2)])
    A = V @ np.diag(mu) @ V.T
    return _instance(A, _sensors(rng, M, 1, n), np.ones((1, M)), [5.0], None)


def general_dense_instance() -> dict:
    """6 states, 40 two-output sensors, defective A, running weights, and a
    two-row polytope: total rate <= 40 and rate of a fixed half <= 12."""
    n, M = 6, 40
    rng = _rng(GENERAL_DENSE_KEY)
    J = np.diag([-0.4, -0.4, -0.4, 0.2, 0.2, -0.8])
    J[0, 1] = J[1, 2] = J[3, 4] = 1.0          # Jordan blocks of size 3 and 2
    S = (_random_orthogonal(rng, n) @ np.diag(np.exp(rng.uniform(-0.7, 0.7, n)))
         @ _random_orthogonal(rng, n))
    A = S @ J @ np.linalg.inv(S)
    sensors = _sensors(rng, M, 2, n)
    capped = np.isin(np.arange(M), rng.permutation(M)[: M // 2])
    C = np.vstack([np.ones(M), capped.astype(float)])
    B = rng.standard_normal((N_STAGES, n, n))
    W_stages = _sym(B @ np.swapaxes(B, 1, 2) / n)
    return _instance(A, sensors, C, [40.0, 12.0], W_stages)


def reference_schedule() -> dict:
    """3 or 4 active sensors per stage, rates summing to the budget of 5."""
    rng = _rng(SCHEDULE_KEY, 0)
    rates = np.zeros((N_STAGES, 30))
    for k in range(N_STAGES):
        cols = rng.choice(30, int(rng.integers(3, 5)), replace=False)
        rates[k, cols] = 5.0 * rng.dirichlet(np.ones(cols.size))
    return {"T": HORIZON, "N": N_STAGES, "rates": rates}


def general_dense_schedule(instance: dict) -> dict:
    """Per stage: three uncapped sensors sharing 30 and one capped sensor at
    10, so both rows hold (40 <= 40, 10 <= 12)."""
    rng = _rng(SCHEDULE_KEY, 1)
    capped = np.asarray(instance["constraints"]["C"][1]) > 0
    free, held = np.flatnonzero(~capped), np.flatnonzero(capped)
    rates = np.zeros((N_STAGES, capped.size))
    for k in range(N_STAGES):
        rates[k, rng.choice(free, 3, replace=False)] = 30.0 * rng.dirichlet(np.ones(3))
        rates[k, rng.choice(held)] = 10.0
    return {"T": HORIZON, "N": N_STAGES, "rates": rates}


def change_basis(instance: dict, seed: int) -> dict:
    """The same problem in the state basis x' = V x, V drawn from the seed.

    Arrivals depend on the schedule only and every objective is a trace
    invariant, so outputs change by roundoff alone.
    """
    V = _random_orthogonal(_rng(BASIS_KEY, seed), instance["n"])
    rot = lambda X: _sym(V @ X @ V.T)
    weights = instance["weights"]
    out = dict(instance)
    out.update(
        A=V @ instance["A"] @ V.T, Q=rot(instance["Q"]), P0=rot(instance["P0"]),
        m0=V @ instance["m0"],
        sensors=[{"H": s["H"] @ V.T, "R": s["R"]} for s in instance["sensors"]],
        weights={"W_stages": None if weights["W_stages"] is None
                 else rot(weights["W_stages"]),
                 "WT": rot(weights["WT"])},
    )
    return out


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, default=lambda a: a.tolist())
        fh.write("\n")


# ---------------------------------------------------------------------------
# output checks


def non_finite(obj, path: str = "$") -> list[str]:
    """JSON paths of every NaN or infinite number in a parsed document."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in non_finite(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in non_finite(v, f"{path}[{i}]")]
    return []


def _infeasible(schedule: dict, instance: dict) -> list[str]:
    rates = np.asarray(schedule["rates"])
    C = np.asarray(instance["constraints"]["C"])
    b = np.asarray(instance["constraints"]["b"])
    excess = float(np.max(rates @ C.T - b))
    low = float(np.min(rates))
    if excess > FEAS_TOL or low < -FEAS_TOL:
        return [f"schedule infeasible: max(C lam - b) = {excess:.3e}, "
                f"min rate = {low:.3e}"]
    return []


@dataclass(frozen=True)
class Command:
    """One CLI call of a cycle and how to judge its output.

    ``outputs`` are the JSON files it writes (relative to the work
    directory); ``values`` maps their parsed contents to the numbers compared
    with ``reference.json`` at ``rtol``; ``invariants`` lists the problems
    that need no reference; ``objective`` gives the cycle's objective_norm.
    """

    kind: str
    argv: tuple
    outputs: tuple
    values: Callable[[list], dict]
    rtol: float
    invariants: Callable[[list], list]
    objective: Callable[[list], float] | None = None


def _solve(kind, instance, extra, converge) -> Command:
    trace_p0 = float(np.trace(instance["P0"]))

    def invariants(out):
        report, schedule = out
        problems = _infeasible(schedule, instance)
        hist = report["history"]
        if converge and not report["converged"]:
            problems.append(f"solve did not converge: pg_norm {report['pg_norm']:.3e}")
        if any(b > a for a, b in zip(hist, hist[1:])) or report["objective"] > hist[0]:
            problems.append("objective history is not monotone")
        return problems

    return Command(
        kind="solve",
        argv=("solve", "--kind", kind, "--instance", "instance.json",
              "--out", kind) + extra,
        outputs=(f"{kind}.report.json", f"{kind}.schedule.json"),
        values=lambda out: {"objective": out[0]["objective"]} if converge else {},
        rtol=OBJECTIVE_RTOL,
        invariants=invariants,
        objective=lambda out: out[0]["objective"] / trace_p0,
    )


def _evaluate() -> Command:
    def invariants(out):
        (mc,) = out
        if mc["n_runs"] != int(MC_RUNS) or len(mc["costs"]) != int(MC_RUNS):
            return [f"evaluate reported {mc['n_runs']} runs, asked {MC_RUNS}"]
        return []

    return Command(
        kind="evaluate",
        argv=("evaluate", "--instance", "instance.json", "--schedule",
              "schedule.json", "--runs", MC_RUNS, "--seed", MC_SEED,
              "--out", "evaluate.json"),
        outputs=("evaluate.json",),
        values=lambda out: {"evaluate_mean": out[0]["mean"]},
        rtol=VALUE_RTOL,
        invariants=invariants,
    )


def _bracket(trajectory: bool) -> Command:
    def invariants(out):
        (rep,) = out
        problems = []
        if not rep["j_lower"] <= rep["mc"]["mean"] <= rep["j_upper"]:
            problems.append("Monte Carlo mean outside [J_lower, J_upper]")
        if rep["contained"] is not True:
            problems.append("contained is not true")
        if trajectory and rep.get("trajectory_contained") is not True:
            problems.append("trajectory_contained is not true")
        return problems

    extra = ("--n-eval", "300") if trajectory else ("--objective-only",)
    return Command(
        kind="bracket",
        argv=("bracket", "--instance", "instance.json", "--schedule",
              "schedule.json", "--runs", MC_RUNS, "--seed", MC_SEED,
              "--out", "bracket") + extra,
        outputs=("bracket.bracket.json",),
        values=lambda out: {"j_lower": out[0]["j_lower"],
                            "mc_mean": out[0]["mc"]["mean"],
                            "j_upper": out[0]["j_upper"]},
        rtol=VALUE_RTOL,
        invariants=invariants,
        objective=lambda out: out[0]["normalized"]["mean"],
    )


def _design_ref(seed):
    inst = reference_instance()
    return {"instance.json": inst}, [_solve("info", inst, (), True)], None


def _design_cov(seed):
    inst = reference_instance()
    cmd = _solve("cov", inst, ("--max-iters", COV_MAX_ITERS), False)
    return {"instance.json": inst}, [cmd], None


def _certify_ref(seed):
    files = {"instance.json": change_basis(reference_instance(), seed),
             "schedule.json": reference_schedule()}
    return files, [_evaluate(), _bracket(trajectory=True)], None


def _general_dense(seed):
    base = general_dense_instance()
    inst = change_basis(base, seed)
    files = {"instance.json": inst, "schedule.json": general_dense_schedule(base)}
    # Known defect at the seed commit: Dykstra leaves rates near -5e-12 on a
    # two-row polytope, Schedule rejects them, and the CLI exits 2.  The
    # solve runs once per run as a probe and is reported, not timed.  It has
    # never succeeded, so there is no reference objective to compare.
    probe = replace(_solve("info", inst, (), True), values=lambda out: {})
    return files, [_bracket(trajectory=False)], probe


# name -> builder: seed -> (input files {name: payload}, the cycle's commands,
# a probe run once per run outside the timed cycles, or None).  Why each
# workload exists: BENCHMARK.json and README.md.
WORKLOADS = {
    "design_ref": _design_ref,
    "certify_ref": _certify_ref,
    "design_cov": _design_cov,
    "general_dense": _general_dense,
}


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
