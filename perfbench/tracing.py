"""Per-layer spans recorded from outside the package.

A ``Tracer`` replaces the public functions listed in ``TRACED`` with wrappers
that record one span per call: name, start, end and the enclosing span.  The
package imports several of these by name (``optimize`` and ``bounds`` take
the surrogate integrators, ``cdkf`` takes ``flow_cov`` and ``jump_cov``,
``surrogate`` takes ``require_pd``, ``cli`` takes the model loaders), so
``install`` rebinds every module attribute that is the original function,
not only the defining one.  ``uninstall`` restores them all.

The high-rate right-hand sides (``lyapunov_rhs``, ``info_rhs``,
``covariance_decrement``) are left unwrapped: a wrapper there would cost as
much as the call.  Their time lands in the self time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# layer -> public functions that open a span
TRACED = {
    "cli": ("main", "cmd_solve", "cmd_evaluate", "cmd_bracket"),
    "model": ("load_instance", "load_schedule", "save_instance", "save_schedule"),
    "optimize": ("solve", "objective", "objective_and_gradient", "project_schedule"),
    "surrogate": ("integrate_info_surrogate", "integrate_cov_surrogate"),
    "riccati": ("require_pd", "flow_cov", "flow_info", "jump_cov", "jump_info",
                "pathwise_cost"),
    "cdkf": ("rollout_covariance", "rollout_information"),
    "montecarlo": ("sample_arrivals", "mc_objective", "mc_mean_trajectories"),
    "bounds": ("objective_bracket", "trajectory_bracket"),
}

# spans that also record a work count taken from their return value
COUNTS = {
    "optimize.solve": lambda report: report.iterations,
    "montecarlo.sample_arrivals": lambda record: record.n_events,
    "bounds.objective_bracket": lambda report: report.mc.n_runs,
    "bounds.trajectory_bracket": lambda report: report.mc.n_runs,
}

BRACKETS = ("bounds.objective_bracket", "bounds.trajectory_bracket")
MODEL_IO = tuple(f"model.{f}" for f in TRACED["model"])

# every per-layer metric, in report order; "ratio" is unitless
PER_LAYER_UNITS = {
    "optimize.iterations": "count",
    "optimize.objective_calls": "count",
    "optimize.gradient_calls": "count",
    "optimize.accept_ratio": "ratio",
    "optimize.pd_failed_trials": "count",
    "optimize.objective_s": "s",
    "optimize.adjoint_self_s": "s",
    "optimize.project_calls": "count",
    "optimize.project_s": "s",
    "surrogate.info_integrations": "count",
    "surrogate.info_integrate_s": "s",
    "surrogate.cov_integrations": "count",
    "surrogate.cov_integrate_s": "s",
    "riccati.require_pd_calls": "count",
    "riccati.require_pd_s": "s",
    "riccati.flow_calls": "count",
    "riccati.flow_s": "s",
    "riccati.jump_calls": "count",
    "riccati.jump_s": "s",
    "riccati.pathwise_cost_s": "s",
    "cdkf.rollouts": "count",
    "cdkf.rollout_s": "s",
    "cdkf.rollout_self_s": "s",
    "montecarlo.arrivals": "count",
    "montecarlo.sample_s": "s",
    "montecarlo.reduce_self_s": "s",
    "bounds.rollouts_per_run": "ratio",
    "bounds.surrogate_integrations": "count",
    "bounds.self_s": "s",
    "model.io_s": "s",
    "cli.self_s": "s",
    "cli.solve_s": "s",
    "cli.evaluate_s": "s",
    "cli.bracket_s": "s",
    "trace.overhead_frac": "ratio",
}

# the metrics that must repeat exactly between two traced cycles
WORK_COUNTS = tuple(k for k, u in PER_LAYER_UNITS.items()
                    if u == "count" or k == "bounds.rollouts_per_run")


class Tracer:
    """Spans of one traced stretch of work, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[int, float] = {}   # span index -> work count
        self.errors: dict[int, str] = {}     # span index -> exception class
        self._stack = [-1]
        self._patches: list[tuple] = []

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        count = COUNTS.get(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, errors, counts = self._stack, self.errors, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                errors[i] = type(exc).__name__
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                counts[i] = count(out)
            return out

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, functions in TRACED.items():
            module = importlib.import_module(f"infosched.{layer}")
            for fname in functions:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{fname}"))
        for modname, module in list(sys.modules.items()):
            if modname != "infosched" and not modname.startswith("infosched."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def arrays(self) -> dict:
        """Spans as arrays: name index, start, end, parent index (-1 at top)."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
        }

    def layer_metrics(self, sampler) -> dict:
        """Per-layer counts and times of everything this tracer recorded.

        Times exclude the speed probes that ran inside each span and are
        rescaled to nominal seconds with the sampler of the same stretch.
        """
        a = self.arrays()
        names, nid, parent = list(a["names"]), a["name_id"], a["parent"]
        probes = sampler.probe_time_before(a["end"]) - sampler.probe_time_before(a["start"])
        dur = (a["end"] - a["start"] - probes) * sampler.factor()
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child

        def mask(*which):
            ids = [names.index(w) for w in which]
            return np.isin(nid, ids)

        def calls(*which):
            return int(np.count_nonzero(mask(*which)))

        def total(*which):
            return float(dur[mask(*which)].sum())

        def self_s(*which):
            return float(self_t[mask(*which)].sum())

        def counted(name):
            idx = names.index(name)
            return sum(v for i, v in self.counts.items() if nid[i] == idx)

        # spans with a bracket among their ancestors (parents precede children)
        is_bracket = mask(*BRACKETS)
        in_bracket = np.zeros(len(nid), dtype=bool)
        if is_bracket.any():
            for i in np.flatnonzero(has_parent):
                p = parent[i]
                in_bracket[i] = is_bracket[p] or in_bracket[p]

        rollouts = ("cdkf.rollout_covariance", "cdkf.rollout_information")
        integrators = ("surrogate.integrate_info_surrogate",
                       "surrogate.integrate_cov_surrogate")
        objective_ids = names.index("optimize.objective")
        pd_failed = sum(1 for i, err in self.errors.items()
                        if nid[i] == objective_ids
                        and err == "PositiveDefinitenessError")
        iterations = counted("optimize.solve")
        objective_calls = calls("optimize.objective")
        bracket_runs = counted("bounds.objective_bracket") \
            + counted("bounds.trajectory_bracket")
        n_brackets = calls(*BRACKETS)
        return {
            "optimize.iterations": iterations,
            "optimize.objective_calls": objective_calls,
            "optimize.gradient_calls": calls("optimize.objective_and_gradient"),
            "optimize.accept_ratio": iterations / objective_calls
            if objective_calls else 0.0,
            "optimize.pd_failed_trials": pd_failed,
            "optimize.objective_s": total("optimize.objective"),
            "optimize.adjoint_self_s": self_s("optimize.objective_and_gradient"),
            "optimize.project_calls": calls("optimize.project_schedule"),
            "optimize.project_s": total("optimize.project_schedule"),
            "surrogate.info_integrations": calls(integrators[0]),
            "surrogate.info_integrate_s": total(integrators[0]),
            "surrogate.cov_integrations": calls(integrators[1]),
            "surrogate.cov_integrate_s": total(integrators[1]),
            "riccati.require_pd_calls": calls("riccati.require_pd"),
            "riccati.require_pd_s": total("riccati.require_pd"),
            "riccati.flow_calls": calls("riccati.flow_cov", "riccati.flow_info"),
            "riccati.flow_s": total("riccati.flow_cov", "riccati.flow_info"),
            "riccati.jump_calls": calls("riccati.jump_cov", "riccati.jump_info"),
            "riccati.jump_s": total("riccati.jump_cov", "riccati.jump_info"),
            "riccati.pathwise_cost_s": total("riccati.pathwise_cost"),
            "cdkf.rollouts": calls(*rollouts),
            "cdkf.rollout_s": total(*rollouts),
            "cdkf.rollout_self_s": self_s(*rollouts),
            "montecarlo.arrivals": int(counted("montecarlo.sample_arrivals")),
            "montecarlo.sample_s": total("montecarlo.sample_arrivals"),
            "montecarlo.reduce_self_s": self_s("montecarlo.mc_objective",
                                               "montecarlo.mc_mean_trajectories"),
            "bounds.rollouts_per_run": int(np.count_nonzero(
                mask(*rollouts) & in_bracket)) / bracket_runs
            if bracket_runs else 0.0,
            "bounds.surrogate_integrations": int(np.count_nonzero(
                mask(*integrators) & in_bracket)) / n_brackets
            if n_brackets else 0.0,
            "bounds.self_s": self_s(*BRACKETS),
            "model.io_s": total(*MODEL_IO),
            "cli.self_s": self_s("cli.main", "cli.cmd_solve", "cli.cmd_evaluate",
                                 "cli.cmd_bracket"),
            "cli.solve_s": total("cli.cmd_solve"),
            "cli.evaluate_s": total("cli.cmd_evaluate"),
            "cli.bracket_s": total("cli.cmd_bracket"),
        }
