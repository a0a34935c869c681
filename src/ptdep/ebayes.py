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

from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from . import kernels
from .engine import (PartitionConfig, TestResult, _evaluate, evaluate_rows, test_dependence,
                     unit_points)
from .errors import DegenerateSample
from .transforms import PairedSample, ShiftSpec, shift_wrap, to_unit_interval

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


def ebayes_test(
    sample: PairedSample,
    cfg: PartitionConfig | None = None,
    scfg: ShiftSearchConfig | None = None,
) -> TestResult:
    """Dependence test with empirically optimised partition centering.

    The candidates form one table: the unwrapped sample first, which is the
    basic test, then the cuts of axis x and, with "xy", those of axis y.
    Both margins are mapped once; each cut re-standardises only its wrapped
    margin, and the rows of an axis are scored in batches. The row with the
    smallest log Bayes factor wins and ties go to the earliest, so the
    baseline wins unless beaten, reported as ``delta_star = shift_axis =
    None``, and the probability of dependence never falls below the basic
    test's.
    """
    cfg = cfg or PartitionConfig()
    scfg = scfg or ShiftSearchConfig()

    if sample.n == 1:
        return replace(_evaluate(sample, cfg), method="ebayes")

    pts = unit_points(sample, cfg)
    x_rows = chain([(None, pts.u)], _wrapped_rows(sample, "x", scfg, cfg))
    table = _score_axis("x", x_rows, pts.v, cfg)
    if scfg.axis_policy == "xy":
        table = chain(table, _score_axis("y", _wrapped_rows(sample, "y", scfg, cfg), pts.u, cfg))
    delta, axis, best = min(table, key=lambda row: row[2].log_bf)
    return replace(best, method="ebayes", delta_star=delta,
                   shift_axis=None if delta is None else axis)


def _wrapped_rows(sample: PairedSample, axis: str, scfg: ShiftSearchConfig,
                  cfg: PartitionConfig):
    """Yield ``(delta, mapped margin)`` for each usable cut of one axis, in grid order.

    A cut that collapses the wrapped margin onto too few values defines no
    partition, so it cannot be the optimum and is skipped.
    """
    for delta in delta_candidates(sample.x if axis == "x" else sample.y, scfg)[1:]:
        shifted = shift_wrap(sample, ShiftSpec(delta=float(delta), axis=axis))
        try:
            moving = to_unit_interval(shifted.x if axis == "x" else shifted.y,
                                      normal_consistent=cfg.mad_normal_consistent)
        except DegenerateSample:
            continue
        yield float(delta), moving


def _score_axis(axis: str, rows, fixed: np.ndarray, cfg: PartitionConfig):
    """Yield ``(delta, axis, result)`` for each ``(delta, moving margin)`` row, in batches.

    ``fixed`` is the other margin, mapped once.
    """
    rows = iter(rows)
    while batch := list(islice(rows, kernels.rows_per_call(fixed.size))):
        deltas, moving = zip(*batch)
        u, v = (np.stack(moving), fixed) if axis == "x" else (fixed, np.stack(moving))
        for delta, res in zip(deltas, evaluate_rows(u, v, cfg)):
            yield delta, axis, res


def run_test(sample: PairedSample, method: str, cfg: PartitionConfig | None = None,
             scfg: ShiftSearchConfig | None = None) -> TestResult:
    """The test that ``method`` names, one of :data:`METHODS`, on one sample."""
    if method == "ebayes":
        return ebayes_test(sample, cfg, scfg)
    if method == "basic":
        return test_dependence(sample, cfg)
    raise ValueError(f"method must be one of {METHODS}, got {method!r}")
