"""Exact filter rollouts along realized Poisson arrival times.

Given an arrival record (time, sensor index) the covariance path of the
continuous-discrete Kalman filter is deterministic: Lyapunov flow between
arrivals, gain update at each arrival.  One walk steps it exactly for a
whole batch of records at once, arrival by arrival: every node of a gap
between arrivals comes from the gap's first node by a power of the grid-step
map.  The Monte Carlo runs of ``montecarlo`` walk together, and
``rollout_covariance`` is the batch of one record, on a uniform evaluation
grid; a run's path does not depend on the rest of the batch, bit for bit.
``rollout_information`` is its nodewise inverse.

Conventions: the state at an arrival time is the post-jump value (left-limit
convention for the flow), so a grid node that coincides with an arrival
records the jumped matrix; multiple arrivals at the same instant are
processed in ascending sensor index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Instance, ValidationError, _sym
from .riccati import (
    COV,
    PositiveDefinitenessError,
    Trajectory,
    invert_trajectory,
    lyapunov_maps,
    require_pd,
    stacked_gains,
    time_grid,
)


@dataclass(frozen=True)
class ArrivalRecord:
    """Realized measurement arrivals: times[i] from sensor sensors[i].

    Events are stored sorted by (time, sensor index), which is also the
    processing order.
    """

    times: np.ndarray
    sensors: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        sensors = np.asarray(self.sensors, dtype=np.int64).ravel()
        if times.shape != sensors.shape:
            raise ValidationError(
                f"times and sensors must align, got {times.shape} vs {sensors.shape}"
            )
        if times.size and not np.all(np.isfinite(times)):
            raise ValidationError("arrival times contain non-finite entries")
        if np.any(sensors < 0):
            raise ValidationError("sensor indices must be nonnegative")
        order = np.lexsort((sensors, times))
        times, sensors = times[order], sensors[order]
        for name, x in (("times", times), ("sensors", sensors)):
            x.setflags(write=False)
            object.__setattr__(self, name, x)

    @property
    def n_events(self) -> int:
        return int(self.times.size)


def _check_arrivals(instance: Instance, arrivals: ArrivalRecord) -> None:
    if arrivals.n_events == 0:
        return
    T = instance.T
    if arrivals.times[0] < 0.0 or arrivals.times[-1] > T:
        raise ValidationError(
            f"arrival times must lie in [0, {T:g}], got range "
            f"[{arrivals.times[0]:g}, {arrivals.times[-1]:g}]"
        )
    if int(arrivals.sensors.max()) >= instance.M:
        raise ValidationError(
            f"arrival references sensor {int(arrivals.sensors.max())}, "
            f"instance has {instance.M}"
        )


WINDOW_ENTRIES = 2**15  # matrix entries of one stack of a window's nodes


def _map_powers(phi, w, count):
    """The maps (Phi_j, W_j) of j = 0..count-1 steps of the map (phi, w).

    Doubling from the identity and the step: Phi_{m+j} = Phi_j Phi_m and
    W_{m+j} = sym(Phi_j W_m Phi_j^T + W_j) for j = 1..m, so the map of j
    steps does not depend on count, bit for bit.
    """
    n = phi.shape[-1]
    phis, ws = np.empty((2, count, n, n))
    phis[0], ws[0], phis[1], ws[1] = np.eye(n), 0.0, phi, w
    m = 1
    while m + 1 < count:
        j = np.arange(1, min(m, count - 1 - m) + 1)
        phis[m + j] = phis[j] @ phis[m]
        ws[m + j] = _sym(phis[j] @ ws[m] @ phis[j].swapaxes(1, 2) + ws[j])
        m *= 2
    return phis, ws


def _check_window(*stops):
    """require_pd of a window's stops, each (P, runs, times, sensors; -1 for
    a node): a failure names the earliest loss in time, a jump before a node
    at the same instant, then the first run in batch order."""
    try:
        for P, *_ in stops:
            require_pd(P)
    except PositiveDefinitenessError:
        P, runs, times, sensors = map(np.concatenate, zip(*stops))
        order = np.lexsort((runs, sensors < 0, times))

        def where(i):
            r, t, j = runs[order[i]], times[order[i]], sensors[order[i]]
            if j < 0:
                return f"at node t={t:g} in run {r}"
            return f"after an arrival from sensor {j} at t={t:g} in run {r}"
        require_pd(P[order], where)


def _filter_walk(instance, records, grid):
    """Step the exact filter covariances of a batch of runs together.

    records holds one arrival record per run.  Round g of the walk carries
    every run from its g-th arrival (t = 0 for g = 0) to its next arrival,
    or to T after its last.  Between arrivals P follows the Lyapunov flow,
    whose exact maps compose: node j of a gap is Phi_j F Phi_j^T + W_j of
    the gap's first node F, (Phi_j, W_j) the map of j grid steps
    (_map_powers, once per walk).  Per round, one call to the walk's
    riccati.lyapunov_maps family gives each run its cut maps, anchor to
    first node and last node (or anchor) to arrival.  The round's nodes go
    in time-ordered windows of grid indices, each of at most WINDOW_ENTRIES
    / n^2 nodes or of one index, so memory does not grow with a gap: one
    batched product records a window's nodes, and the runs whose last node
    is in it take their riccati.stacked_gains update.  The carry ignores
    overflow: the check below reports a non-finite matrix.

    Yields (runs, nodes, P) per window that records nodes, each run's nodes
    in time order; a run's path depends on its own record alone, bit for
    bit.  One require_pd per window checks its post-jump and node matrices.
    The first failing round is reported, and within it the earliest loss in
    time, a jump before a node at the same instant, ties in batch order; a
    singular innovation checks its window's nodes first.
    """
    sys = instance.system
    counts = np.array([rec.n_events for rec in records])
    R, G = len(records), len(grid)
    budget = max(1, WINDOW_ENTRIES // instance.n**2)   # nodes per window
    # ends[g, r]: run r's arrival g, which ends its round g (inf: none)
    ends = np.full((counts.max() + 1, R), np.inf)
    sensor = np.zeros(ends.shape, dtype=np.int64)
    for r, rec in enumerate(records):
        _check_arrivals(instance, rec)
        ends[:rec.n_events, r] = rec.times
        sensor[:rec.n_events, r] = rec.sensors
    # a round's nodes lie in [anchor, end): a node at an arrival is jumped
    bounds = np.searchsorted(grid, ends)
    # no cut outlasts the longest grid interval: rounding is monotone
    family = lyapunov_maps(sys.A, sys.Q, np.diff(grid).max())
    with np.errstate(over="ignore", invalid="ignore"):
        phis, ws = _map_powers(*family([grid[1] - grid[0]]), G)
    F = np.repeat(np.asarray(sys.P0, dtype=float)[None], R, axis=0)
    lo, anchor = np.zeros(R, dtype=np.int64), np.zeros(R)
    for g, (hi, end) in enumerate(zip(bounds, ends)):
        walked = np.flatnonzero(hi > lo)
        arriving = np.flatnonzero(g < counts)
        a, b, cut = lo[walked], hi[walked], len(walked)
        last = np.where(hi > lo, grid[hi - 1], anchor)[arriving]
        with np.errstate(over="ignore", invalid="ignore"):
            phi, w = family(np.concatenate(
                [grid[a] - anchor[walked], end[arriving] - last]))
            first = _sym(phi[:cut] @ F[walked] @ phi[:cut].swapaxes(1, 2)
                         + w[:cut])
        # a window starts where the nodes before an index pass a multiple
        # of budget; a jump joins the window of its last node
        starts, joins = [0], np.zeros(len(arriving), dtype=np.int64)
        if (b - a).sum() > budget:
            per = np.cumsum(np.bincount(a, minlength=G + 1)
                            - np.bincount(b, minlength=G + 1))
            starts = np.flatnonzero(
                np.diff((np.cumsum(per) - per) // budget, prepend=-1))
            joins = np.searchsorted(starts[1:], hi[arriving])
        for s, (i0, i1) in enumerate(zip(starts, [*starts[1:], G + 1])):
            f = np.maximum(a, i0)   # each run's first node in the window
            k = np.maximum(np.minimum(b, i1) - f, 0)
            runs, tops = np.repeat(walked, k), np.cumsum(k)
            at = np.repeat(f - tops + k, k) + np.arange(len(runs))
            j = at - lo[runs]
            mine = joins == s
            jumps, cuts = arriving[mine], phi[cut:][mine]
            with np.errstate(over="ignore", invalid="ignore"):
                P, base = phis[j], np.repeat(first, k, axis=0)
                P = _sym(P @ base @ P.swapaxes(1, 2) + ws[j])
                F[walked[k > 0]] = P[tops[k > 0] - 1]
                nodes = (P, runs, grid[at], np.full(len(runs), -1))
                before = _sym(cuts @ F[jumps] @ cuts.swapaxes(1, 2)
                              + w[cut:][mine])
                js = sensor[g, jumps]
                try:
                    HP, sol = stacked_gains(before, instance.H[js],
                                            instance.R[js])
                except np.linalg.LinAlgError:
                    _check_window(nodes)   # a loss before the failure first
                    raise
                F[jumps] = _sym(before - _sym(HP.swapaxes(1, 2) @ sol))
            _check_window((F[jumps], jumps, end[jumps], js), nodes)
            if len(P):
                yield runs, at, P
        lo, anchor = hi, end


def rollout_covariance(
    instance: Instance,
    arrivals: ArrivalRecord,
    n_eval: int = 300,
) -> Trajectory:
    """Deterministic covariance path of the filter for fixed arrivals."""
    grid = time_grid(instance.T, n_eval)
    values = np.empty((n_eval + 1, instance.n, instance.n))
    for _, nodes, P in _filter_walk(instance, [arrivals], grid):
        values[nodes] = P
    # the walk checked every node it yielded
    return Trajectory._checked(COV, grid, values)


def rollout_information(
    instance: Instance,
    arrivals: ArrivalRecord,
    n_eval: int = 300,
) -> Trajectory:
    """Same path as rollout_covariance, in information coordinates."""
    return invert_trajectory(rollout_covariance(instance, arrivals, n_eval))



__all__ = [
    "ArrivalRecord",
    "rollout_covariance",
    "rollout_information",
]
