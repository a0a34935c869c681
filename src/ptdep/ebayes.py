"""Empirical-Bayes partition centering via shift-and-wrap search.

The evidence depends on where the partition's central split falls. This
module scans candidate cut points, re-standardises the wrapped data for
each, and keeps the centering that maximises the evidence for dependence
(equivalently, minimises the log Bayes factor of independence). The first
candidate is the unwrapped sample, so the basic test is always in the
search. Because the objective is piecewise constant in the cut point
between consecutive data values, a grid over midpoints or empirical
quantiles is exhaustive up to equivalence, and cuts between the same two
values are scored once; no continuous optimiser is involved.

Maximising over centerings inflates the dependence probability, including
for independent data. The selected probability is most useful for ranking
many pairs, not as a calibrated posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from . import kernels
from .engine import PartitionConfig, TestResult, _evaluate, _result, evaluate_rows, unit_points
from .errors import DegenerateSample
from .transforms import PairedSample, to_unit_interval, wrap_at

# The tests a caller can name: the basic test and the ebayes-centred one.
METHODS = ("basic", "ebayes")


@dataclass(frozen=True)
class ShiftSearchConfig:
    """Candidate grid and axis policy for the centering search.

    ``grid`` is either "quantile" (``grid_size`` evenly spaced empirical
    quantiles strictly inside the data range) or "midpoints" (every
    midpoint between consecutive distinct values). ``axis_policy`` is "x"
    or "xy"; with "xy" the two axes are searched independently and the
    better one-axis optimum wins. The no-shift baseline is always a
    candidate.

    Every extra candidate is an extra draw at the null maximum, so the
    false positive rate of the optimised test grows with the grid. The
    default of 4 quantiles keeps it near 0.4 at n = 150; midpoints or
    large grids push it well above 0.7.
    """

    axis_policy: str = "x"
    grid: str = "quantile"
    grid_size: int = 4

    def __post_init__(self):
        if self.axis_policy not in ("x", "xy"):
            raise ValueError(f"axis_policy must be 'x' or 'xy', got {self.axis_policy!r}")
        if self.grid not in ("quantile", "midpoints"):
            raise ValueError(f"grid must be 'quantile' or 'midpoints', got {self.grid!r}")
        if self.grid == "quantile" and self.grid_size < 2:
            raise ValueError("grid_size must be >= 2 for the quantile grid")


def delta_candidates(values, cfg: ShiftSearchConfig) -> np.ndarray:
    """Candidate cut points for one axis, ascending, sentinel first.

    The sentinel is a value strictly below the data minimum; the wrap
    transform leaves the sample untouched there, so it stands for the
    no-shift baseline, which :func:`ebayes_test` scores on the unwrapped
    sample instead. Quantile cuts that wrap the same values are kept once,
    at the first of them.
    """
    arr = np.asarray(values, dtype=np.float64)
    distinct = np.unique(arr)
    if distinct.size < 2:
        raise DegenerateSample("cannot place cut points on a constant margin")
    lo, hi = float(distinct[0]), float(distinct[-1])
    if cfg.grid == "midpoints":
        cands = 0.5 * (distinct[:-1] + distinct[1:])
    else:
        probs = np.arange(1, cfg.grid_size + 1) / (cfg.grid_size + 1.0)
        q = np.quantile(arr, probs)
        q = q[(q > lo) & (q < hi)]
        # a cut wraps the values <= it, so it is classed by how many distinct values those are
        _, first = np.unique(np.searchsorted(distinct, q, side="right"), return_index=True)
        cands = q[first]
    # lo - 1.0 rounds back to lo once |lo| >= 2**53
    return np.concatenate(([min(lo - 1.0, np.nextafter(lo, -np.inf))], cands))


class Segment(NamedTuple):
    """Candidate rows of one axis against the other margin, mapped.

    ``rows[r]`` is a mapped margin of ``axis`` for cut ``deltas[r]`` (None
    for the unwrapped margin) and ``fixed`` the other margin.
    """

    axis: str
    deltas: list
    rows: np.ndarray
    fixed: np.ndarray


def cut_rows(values: np.ndarray, scfg: ShiftSearchConfig, cfg: PartitionConfig):
    """Yield ``(deltas, rows)`` blocks of one margin's usable cuts, in grid order.

    Each row is the margin wrapped at one cut of the grid and mapped again;
    a block holds the cuts of at most one kernel call. A cut that collapses
    the wrapped margin onto too few values defines no partition, so it cannot
    be the optimum and is skipped; so is a cut whose wrap overflows the float
    range, on a margin spanning more than it. The margin must not be constant.
    """
    cuts = delta_candidates(values, scfg)[1:]
    step = kernels.rows_per_call(values.size)
    for lo in range(0, cuts.size, step):
        block = cuts[lo:lo + step]
        deltas, rows = [], []
        with np.errstate(over="ignore"):
            wrapped_rows = wrap_at(values, block[:, None])
        for delta, wrapped in zip(block.tolist(), wrapped_rows):
            if not np.isfinite(wrapped).all():
                continue
            try:
                rows.append(to_unit_interval(wrapped, normal_consistent=cfg.mad_normal_consistent))
            except DegenerateSample:
                continue
            deltas.append(delta)
        if rows:
            yield deltas, np.stack(rows)


def cut_table(values: np.ndarray, scfg: ShiftSearchConfig, cfg: PartitionConfig,
              mapped: np.ndarray | None = None) -> tuple[list, np.ndarray]:
    """All of :func:`cut_rows` in one ``(deltas, rows)``, after ``mapped`` when given."""
    deltas, rows = ([None], [mapped[None]]) if mapped is not None else ([], [])
    for block_deltas, block in cut_rows(values, scfg, cfg):
        deltas += block_deltas
        rows.append(block)
    return deltas, np.concatenate(rows) if rows else np.empty((0, values.size))


def best_candidates(tables, cfg: PartitionConfig):
    """Yield the winning candidate of each table, in order, as an ebayes result.

    A table is a non-empty iterable of :class:`Segment`. Its winner is the
    row with the smallest log Bayes factor, the earliest on ties, reported
    with ``delta_star`` its cut and ``shift_axis`` its axis (both None for
    an unwrapped row). Segments of one table or of consecutive tables share
    kernel calls of up to :func:`ptdep.kernels.rows_per_call` rows; tables
    are read as the calls fill, and one call's segments are held at a time.
    """
    best: dict[int, tuple] = {}
    call, size, step, done = [], 0, 0, 0
    for t, table in enumerate(tables):
        for seg in table:
            step = step or kernels.rows_per_call(seg.rows.shape[1])
            if call and size + len(seg.rows) > step:
                _score_call(call, cfg, best)
                call, size = [], 0
                while done < t:
                    yield _winner(*best.pop(done), cfg)
                    done += 1
            call.append((t, seg))
            size += len(seg.rows)
    if call:
        _score_call(call, cfg, best)
    for t in sorted(best):
        yield _winner(*best.pop(t), cfg)


def _score_call(call, cfg: PartitionConfig, best: dict) -> None:
    """Score the segments of one kernel call; keep each table's earliest best row."""
    u, v = (_margin(call, axis) for axis in ("x", "y"))
    levels, depth, truncated = kernels.logbf_batch(u, v, cfg.depth_cap, cfg.c)
    log_bf = [math.fsum(row[:d]) for row, d in zip(levels.tolist(), depth.tolist())]
    lo = 0
    for t, seg in call:
        hi = lo + len(seg.rows)
        r = min(range(lo, hi), key=log_bf.__getitem__)
        if t not in best or log_bf[r] < best[t][0]:
            best[t] = (log_bf[r], seg.deltas[r - lo], seg.axis,
                       levels[r, :depth[r]].copy(), truncated[r], u.shape[-1])
        lo = hi


def _margin(call, axis: str) -> np.ndarray:
    """The call's coordinates on ``axis``: one vector when every segment holds it fixed."""
    parts = [s.rows if s.axis == axis else s.fixed for _, s in call]
    if all(p is parts[0] and p.ndim == 1 for p in parts):
        return parts[0]
    return np.concatenate([p if p.ndim == 2 else np.broadcast_to(p, s.rows.shape)
                           for p, (_, s) in zip(parts, call)])


def _winner(log_bf, delta, axis, levels, truncated, n, cfg: PartitionConfig) -> TestResult:
    return replace(_result(levels, truncated, n, cfg), method="ebayes", delta_star=delta,
                   shift_axis=None if delta is None else axis)


def candidate_table(sample: PairedSample, cfg: PartitionConfig, scfg: ShiftSearchConfig):
    """The segments of one sample's search, lazily: the unwrapped sample (the
    basic test), the cuts of axis x and, with "xy", of axis y. Both margins
    are mapped once; each cut re-standardises only its wrapped margin.
    """
    pts = unit_points(sample, cfg)
    table = chain([Segment("x", [None], pts.u[None], pts.v)],
                  (Segment("x", d, r, pts.v) for d, r in cut_rows(sample.x, scfg, cfg)))
    if scfg.axis_policy == "xy":
        table = chain(table, (Segment("y", d, r, pts.u) for d, r in cut_rows(sample.y, scfg, cfg)))
    return table


def ebayes_test(
    sample: PairedSample,
    cfg: PartitionConfig | None = None,
    scfg: ShiftSearchConfig | None = None,
) -> TestResult:
    """Dependence test with empirically optimised partition centering.

    The winner of the sample's :func:`candidate_table` is the row with the
    smallest log Bayes factor, the earliest on ties. So the baseline wins
    unless beaten, reported as ``delta_star = shift_axis = None``, and the
    probability of dependence never falls below the basic test's.
    """
    return next(run_tests([sample], "ebayes", cfg, scfg))


def run_tests(samples, method: str, cfg: PartitionConfig | None = None,
              scfg: ShiftSearchConfig | None = None):
    """Yield the :func:`run_test` result of each sample of one size, in order.

    Samples are read as the kernel calls fill: basic ones mapped in blocks of
    :func:`ptdep.kernels.rows_per_call`, ebayes ones as candidate tables
    sharing the calls of :func:`best_candidates`. Each result is bit for bit
    the sample's alone; a single point's is the prior.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    cfg = cfg or PartitionConfig()
    samples = iter(samples)
    first = next(samples, None)
    if first is None:
        return
    samples = _same_size(first, samples)
    if first.n == 1:
        for sample in samples:
            yield replace(_evaluate(sample, cfg), method=method)
    elif method == "ebayes":
        scfg = scfg or ShiftSearchConfig()
        yield from best_candidates((candidate_table(s, cfg, scfg) for s in samples), cfg)
    else:
        step = kernels.rows_per_call(first.n)
        while block := [unit_points(s, cfg) for s in islice(samples, step)]:
            yield from evaluate_rows(np.stack([p.u for p in block]),
                                     np.stack([p.v for p in block]), cfg)


def _same_size(first: PairedSample, rest):
    """``first``, then ``rest``, each checked to have the size of ``first``."""
    yield first
    for sample in rest:
        if sample.n != first.n:
            raise ValueError(f"samples must share one size, got {first.n} and {sample.n}")
        yield sample


def run_test(sample: PairedSample, method: str, cfg: PartitionConfig | None = None,
             scfg: ShiftSearchConfig | None = None) -> TestResult:
    """The test that ``method`` names, one of :data:`METHODS`, on one sample."""
    return next(run_tests([sample], method, cfg, scfg))
