"""Exact filter rollouts along realized Poisson arrival times.

Given an arrival record (time, sensor index) the covariance path of the
continuous-discrete Kalman filter is deterministic: Lyapunov flow between
arrivals, gain update at each arrival.  One walk steps it exactly for a
whole batch of records at once, arrival by arrival: every node of a gap
between arrivals comes from the gap's first node by a power of the grid-step
map.  The Monte Carlo runs of ``montecarlo`` walk together, and
``rollout_covariance`` is the batch of one record, on a uniform evaluation
grid; a run's path does not depend on the rest of the batch, bit for bit,
and a failing batch fails as its lowest failing run walked alone.
A caller that reads only some nodes (a cost with a terminal weight alone
reads the last) has the walk form just those and each gap's last node, with
the same floats, and can keep each gap's first node, from which every node
is formed again a window at a time (the Monte Carlo moments).
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
        sensors = np.asarray(self.sensors).ravel()
        if times.shape != sensors.shape:
            raise ValidationError(
                f"times and sensors must align, got {times.shape} vs {sensors.shape}"
            )
        if times.size and not np.all(np.isfinite(times)):
            raise ValidationError("arrival times contain non-finite entries")
        if sensors.dtype.kind == "f" and not np.all(
                np.isfinite(sensors) & (sensors == np.trunc(sensors))):
            raise ValidationError("sensor indices must be whole numbers")
        if np.any(sensors < 0):
            raise ValidationError("sensor indices must be nonnegative")
        order = np.lexsort((sensors, times))
        times, sensors = times[order], sensors[order].astype(np.int64)
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
    top = int(arrivals.sensors.max())
    if top >= instance.M:
        raise ValidationError(
            f"arrival references sensor {top}, instance has {instance.M}")


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


def _node(maps, first, j):
    """Node j of the gaps whose first nodes are first (a stack aligned with
    j): sym(Phi_j F Phi_j^T + W_j), maps the walk's (Phi_j, Phi_j^T, W_j)."""
    phis, phts, ws = maps
    return _sym(phis[j] @ first @ phts[j] + ws[j])


class _Gaps:
    """Each gap's first node, as a walk keeps them (_walk's gaps).

    A node depends on its gap's first node alone, so every node of every
    run can be formed again from these, with the walk's floats, while they
    hold one matrix per gap with nodes, never more than one per node.  The
    walk knows every gap before round 0, so they go in one store, each
    run's in time order, and no round's first nodes are copied twice.
    """

    def open(self, walk, maps, bounds):
        """Before round 0 of walk, its (instance, records, grid): bounds[g,
        r] ends run r's nodes of round g, from bounds[g - 1, r] (0 at 0)."""
        per = np.count_nonzero(np.diff(bounds, axis=0, prepend=0), axis=0)
        self.walk, self.maps, self.G = walk, maps, len(walk[2])
        self.slot = np.cumsum(per) - per    # each run's next gap
        self.keys = np.empty(per.sum(), dtype=np.int64)   # r G + first node
        self.firsts = np.empty((per.sum(),) + maps[0].shape[1:])

    def keep(self, runs, a, first):
        """A round's gaps: runs, their first node indices a, first nodes."""
        at = self.slot[runs]
        self.keys[at], self.firsts[at] = runs * self.G + a, first
        self.slot[runs] += 1

    def windows(self):
        """(i, P): P the nodes i.. of every run, run-major, a (runs,
        w, n, n) block of at most WINDOW_ENTRIES entries or of one node
        index, in time order.  Each block is require_pd'd, and a failure is
        the walk's (_lowest_failure)."""
        R, G, n = len(self.slot), self.G, self.firsts.shape[-1]
        base = np.arange(R)[:, None] * G
        w = max(1, WINDOW_ENTRIES // (R * n * n))
        for i in range(0, G, w):
            at = np.arange(i, min(i + w, G))
            q = (base + at).ravel()     # node i of run r is r G + i
            # node i is in the last gap of its run that starts at or before i
            k = np.searchsorted(self.keys, q, "right") - 1
            with np.errstate(over="ignore", invalid="ignore"):
                P = _node(self.maps, self.firsts[k], q - self.keys[k])
            try:
                require_pd(P)
            except PositiveDefinitenessError as error:
                raise _lowest_failure(*self.walk) or error from None
            yield i, P.reshape(R, len(at), n, n)


def _lowest_failure(instance, records, grid):
    """The error of the lowest failing run of records walked alone, naming
    the run by its index in records (None if no run fails): the failure of
    a batch, full or read-masked walk or window of its gaps.  No product of
    the walk mixes runs, so a batch fails exactly when one of its runs
    does, and halving finds the lowest in about one walk of the batch.  A
    run alone reports its earliest loss, a jump before a node at the same
    instant, and a node loss before a singular innovation after it."""
    lo, hi = 0, len(records)    # the runs below lo pass
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            for _ in _walk(instance, records[lo:mid], grid, run0=lo):
                pass
            lo = mid
        except (PositiveDefinitenessError, np.linalg.LinAlgError) as error:
            if mid == lo + 1:
                return error
            hi = mid


def _filter_walk(instance, records, grid, read=None, gaps=None):
    """_walk of a batch, which fails as its lowest failing run fails alone
    (_lowest_failure): like a path, an error ignores the rest of the batch."""
    try:
        yield from _walk(instance, records, grid, read, gaps)
    except (PositiveDefinitenessError, np.linalg.LinAlgError) as error:
        raise _lowest_failure(instance, records, grid) or error from None


def _walk(instance, records, grid, read=None, gaps=None, run0=0):
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
    batched product records a window's nodes.  Then the runs that arrive
    take their riccati.stacked_gains update.  The carry ignores overflow:
    the checks below report a non-finite matrix.

    read, a boolean mask over grid (None: every node), names the nodes the
    caller reads.  Each gap then forms only its read nodes and its last
    node, which the next jump or gap starts from; as every node comes from
    the gap's first by its own power map, a formed node does not depend on
    the nodes skipped, bit for bit.  The windows stay the full walk's, so
    the index arrays of a window stay within its bound however few of its
    nodes are read.  gaps, a _Gaps, is opened before round 0 and keeps
    each gap's first node as its round forms it, from which the nodes
    skipped can be formed again.

    Memory grows with the batch by the round's O(R n^2) working set: each
    run's carried matrix, first node and two cut maps (the family's Horner
    table is read in chunks of at most riccati.MAP_ENTRIES entries).  At
    n = 20 the traced peak of mc_objective grew about 37 kB (12 matrices)
    per run from 100 to 400 runs.  Walking the runs in
    batches would bound it: neither a run's path nor the failure of a
    batch (_filter_walk) depends on the rest of the batch.

    Yields (runs, nodes, P) per window that records nodes, each run's nodes
    in time order; a run's path depends on its own record alone, bit for
    bit.  One require_pd per window checks its nodes, and one per round
    the post-jump matrices after them, so the nodes skipped are not
    checked; an error names records[r] run run0 + r.
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
    # a stack's product with a strided transpose runs 2.5-2.8x slower
    maps = phis, np.ascontiguousarray(phis.swapaxes(1, 2)), ws
    if gaps is not None:
        gaps.open((instance, records, grid), maps, bounds)
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
        if gaps is not None:
            gaps.keep(walked, a, first)
        # a window starts where the nodes before an index pass a multiple
        # of budget
        starts = [0]
        if (b - a).sum() > budget:
            per = np.cumsum(np.bincount(a, minlength=G + 1)
                            - np.bincount(b, minlength=G + 1))
            starts = np.flatnonzero(
                np.diff((np.cumsum(per) - per) // budget, prepend=-1))
        for i0, i1 in zip(starts, [*starts[1:], G + 1]):
            f = np.maximum(a, i0)   # each run's first node in the window
            k = np.maximum(np.minimum(b, i1) - f, 0)
            slot = np.repeat(np.arange(cut), k)     # position in walked
            at = np.repeat(f - np.cumsum(k) + k, k) + np.arange(len(slot))
            carry = at == b[slot] - 1   # a gap's last node, carried on
            if read is not None:
                keep = read[at] | carry
                slot, at, carry = slot[keep], at[keep], carry[keep]
            runs, j = walked[slot], at - a[slot]
            with np.errstate(over="ignore", invalid="ignore"):
                P = _node(maps, first[slot], j)
            F[runs[carry]] = P[carry]
            require_pd(P, lambda m: f"at node t={grid[at[m]]:g} "
                                    f"in run {run0 + runs[m]}")
            if len(P):
                yield runs, at, P
        # each run's arrival ends its round, after its nodes
        cuts, js = phi[cut:], sensor[g, arriving]
        with np.errstate(over="ignore", invalid="ignore"):
            before = _sym(cuts @ F[arriving] @ cuts.swapaxes(1, 2) + w[cut:])
            HP, sol = stacked_gains(before, instance.H[js], instance.R[js])
            F[arriving] = _sym(before - _sym(HP.swapaxes(1, 2) @ sol))
        require_pd(F[arriving], lambda m: (
            f"after an arrival from sensor {js[m]} at t={end[arriving[m]]:g} "
            f"in run {run0 + arriving[m]}"))
        lo, anchor = hi, end


def rollout_covariance(
    instance: Instance,
    arrivals: ArrivalRecord,
    n_eval: int = 300,
) -> Trajectory:
    """Deterministic covariance path of the filter for fixed arrivals."""
    grid = time_grid(instance.T, n_eval)
    values = np.empty((len(grid), instance.n, instance.n))
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
