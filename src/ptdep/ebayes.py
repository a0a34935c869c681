"""Empirical-Bayes partition centering via shift-and-wrap search.

The evidence depends on where the partition's central split falls. This
module scans candidate cut points, re-standardises the wrapped data for
each, and keeps the centering that maximises the evidence for dependence
(equivalently, minimises the log Bayes factor of independence). The first
candidate is the unwrapped sample, so the basic test is always in the
search; the basic test is the search with no cuts. Both methods score
through :func:`best_candidates` and differ only in the candidate rows a
margin contributes. Because the objective is piecewise constant in the cut point
between consecutive data values, a grid over midpoints or empirical
quantiles is exhaustive up to equivalence, and cuts between the same two
values are scored once; no continuous optimiser is involved.

Maximising over centerings inflates the dependence probability, including
for independent data. The selected probability is most useful for ranking
many pairs, not as a calibrated posterior.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import count, islice
from typing import NamedTuple

import numpy as np

from . import kernels
from .engine import PartitionConfig, TestResult, posterior_dependence
from .errors import DegenerateSample
from .transforms import PairedSample, _as_vector, to_unit_interval, wrap_at

# The tests a caller can name: the basic test and the ebayes-centred one.
METHODS = ("basic", "ebayes")

# The largest quantile grid: the midpoints grid already reaches every cut class.
_MAX_GRID = 2 ** 20


@dataclass(frozen=True)
class ShiftSearchConfig:
    """Candidate grid and axis policy for the centering search.

    ``grid`` is either an integer count of evenly spaced empirical quantiles
    strictly inside the data range, 2 to 2^20 of them, or "midpoints" (every
    midpoint between consecutive distinct values). ``axis_policy`` is "x" or
    "xy"; with "xy" the two axes are searched independently and the better
    one-axis optimum wins. The no-shift baseline is always a candidate.

    Every extra candidate is an extra draw at the null maximum, so the
    false positive rate of the optimised test grows with the grid. The
    default of 4 quantiles keeps it near 0.4 at n = 150; midpoints or
    large grids push it well above 0.7.
    """

    axis_policy: str = "x"
    grid: int | str = 4

    def __post_init__(self):
        if self.axis_policy not in ("x", "xy"):
            raise ValueError(f"axis_policy must be 'x' or 'xy', got {self.axis_policy!r}")
        if self.grid == "midpoints":
            return
        if isinstance(self.grid, bool) or not isinstance(self.grid, numbers.Integral):
            raise ValueError(f"grid must be an integer or 'midpoints', got {self.grid!r}")
        if self.grid < 2:
            raise ValueError(f"grid must be >= 2, got {self.grid}")
        if self.grid > _MAX_GRID:
            raise ValueError(f"grid must be <= {_MAX_GRID}, got {self.grid}")


def delta_candidates(values, cfg: ShiftSearchConfig) -> np.ndarray:
    """Candidate cut points for one axis, ascending, strictly inside the data range.

    ``values`` must be a non-empty one-dimensional vector of finite values,
    checked as the margin map checks it. A margin of fewer than two distinct
    values has none. Quantile cuts that wrap the same values are kept once,
    at the first of them. The distinct values and the quantiles come from one
    sort of the margin.
    """
    ordered = np.sort(_as_vector(values, "values"))
    distinct = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    if distinct.size < 2:
        return np.empty(0)
    if cfg.grid == "midpoints":
        return 0.5 * (distinct[:-1] + distinct[1:])
    probs = np.arange(1, cfg.grid + 1) / (cfg.grid + 1.0)
    # + 0.0 makes a zero cut +0.0: a margin holding both zeros sorts them in input order
    q = np.quantile(ordered, probs) + 0.0
    q = q[(q > distinct[0]) & (q < distinct[-1])]
    # a cut wraps the values <= it, so it is classed by how many distinct values those are
    _, first = np.unique(np.searchsorted(distinct, q, side="right"), return_index=True)
    return q[first]


def shift_search(method: str, scfg: ShiftSearchConfig | None) -> ShiftSearchConfig | None:
    """The cut search ``method`` runs: None for "basic", ``scfg`` or the default for "ebayes".

    The basic test runs no search, so it refuses a ``scfg`` rather than ignore it.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == "ebayes":
        return scfg or ShiftSearchConfig()
    if scfg is not None:
        raise ValueError("scfg applies only with method 'ebayes'")
    return None


class Segment(NamedTuple):
    """One candidate row of tables ``first`` to ``first + B - 1``.

    ``row`` is the margin of ``axis`` wrapped at ``delta`` (None: unwrapped)
    and mapped, (n,) shared by the B tables or (B, n); ``fixed`` is the other
    margin, (n,) shared or (B, n).
    """

    first: int
    axis: str
    delta: float | None
    row: np.ndarray
    fixed: np.ndarray

    @property
    def tables(self) -> int:
        """B: one unless ``row`` or ``fixed`` holds one entry per table."""
        if self.row.ndim == 2:
            return len(self.row)
        return len(self.fixed) if self.fixed.ndim == 2 else 1

    def cut(self, lo: int, hi: int) -> Segment:
        """Its tables ``lo`` to ``hi - 1``, as a segment of their own."""
        return Segment(self.first + lo, self.axis, self.delta,
                       self.row[lo:hi] if self.row.ndim == 2 else self.row,
                       self.fixed[lo:hi] if self.fixed.ndim == 2 else self.fixed)


def cut_rows(values: np.ndarray, search: ShiftSearchConfig | None, axis: str):
    """Yield ``(delta, row)`` for each usable cut of the margin on ``axis``, in grid order.

    This is the one place a search becomes cut rows. The basic test's
    ``search`` of None cuts no axis, and axis "y" is cut only under the "xy"
    policy; every route asks for both axes and takes what comes.

    Each row is the margin wrapped at one cut of the grid and mapped again,
    one cut at a time, as the caller takes it. A cut that collapses the
    wrapped margin onto too few values defines no partition, so it cannot be
    the optimum and is skipped; so is a cut whose wrap overflows the float
    range, on a margin spanning more than it. A margin of fewer than two
    distinct values has no cuts.
    """
    if search is None or (axis == "y" and search.axis_policy != "xy"):
        return
    for delta in delta_candidates(values, search).tolist():
        with np.errstate(over="ignore"):
            wrapped = wrap_at(values, delta)
        if not np.isfinite(wrapped).all():
            continue
        try:
            row = to_unit_interval(wrapped)
        except DegenerateSample:
            continue
        yield delta, row


def best_candidates(blocks, cfg: PartitionConfig):
    """Yield ``(log_bf, delta, axis, levels, truncated)`` of each table's winner, in order.

    ``blocks`` yields iterables of :class:`Segment` holding all rows of their
    tables, each table's in candidate order; tables are numbered from 0, each
    with a row. The winner has the smallest log Bayes factor, the earliest on
    ties. Segments are cut between tables so that every kernel call but the
    last holds :func:`ptdep.kernels.rows_per_call` rows, and a table's rows
    may span calls. Blocks are read as calls fill, and one call's segments
    are held at a time.
    """
    best: dict[int, tuple] = {}  # the tables done, done + 1, ... scored so far
    call, size, step, done = [], 0, 0, 0
    for block in blocks:
        for seg in block:
            step = step or kernels.rows_per_call(seg.row.shape[-1])
            tables = seg.tables
            lo = 0
            while lo < tables:
                take = min(tables - lo, step - size)
                call.append(seg if take == tables else seg.cut(lo, lo + take))
                size, lo = size + take, lo + take
                if size == step:
                    _score_call(call, size, cfg, best)
                    call, size = [], 0
        seg = block = None  # hold no scored rows while the next block is built
        ready = min(s.first for s in call) if call else done + len(best)
        while done < ready:
            yield best.pop(done)
            done += 1
    if call:
        _score_call(call, size, cfg, best)
    yield from (best.pop(t) for t in range(done, done + len(best)))


def _score_call(call, size: int, cfg: PartitionConfig, best: dict) -> None:
    """Score the ``size`` rows of one kernel call; keep each table's earliest best row."""
    u, v = (_margin(call, size, axis) for axis in ("x", "y"))
    levels, depth, truncated = kernels.logbf_batch(u, v, cfg.depth_cap, cfg.c)
    levels = [row[:d] for row, d in zip(levels.tolist(), depth.tolist())]
    log_bf, truncated = list(map(math.fsum, levels)), truncated.tolist()
    rows = ((t, seg) for seg in call for t in range(seg.first, seg.first + seg.tables))
    for r, (t, seg) in enumerate(rows):
        if (held := best.get(t)) is None or log_bf[r] < held[0]:
            best[t] = (log_bf[r], seg.delta, seg.axis, levels[r], truncated[r])


def _margin(call, size: int, axis: str) -> np.ndarray:
    """The call's coordinates on ``axis``, in a shape that broadcasts to its rows.

    A lone segment's part, or one (n,) part that every segment shares, is
    passed as it is; else each segment's part is copied in, row by row.
    """
    parts = [seg.row if seg.axis == axis else seg.fixed for seg in call]
    if len(parts) == 1 or (parts[0].ndim == 1 and all(part is parts[0] for part in parts)):
        return parts[0]
    out, lo = np.empty((size, parts[0].shape[-1])), 0
    for seg, part in zip(call, parts):
        out[lo:lo + seg.tables] = part
        lo += seg.tables
    return out


def winner_result(winner, n: int, cfg: PartitionConfig, method: str) -> TestResult:
    """The ``method`` result of n points whose winning candidate row is ``winner``.

    This is the one place a :class:`~ptdep.engine.TestResult` is built.
    ``winner`` is ``(log_bf, delta, axis, levels, truncated)`` as
    :func:`best_candidates` yields it: ``levels`` are the row's trimmed level
    sums and ``log_bf`` is ``math.fsum(levels)``, the exactly rounded sum, so
    the level-sum identity holds to the last digit at any sample size. The
    probability of dependence is :func:`~ptdep.engine.posterior_dependence`
    of ``log_bf`` under ``cfg.prior_odds``; the axis is reported only for a
    cut row.
    """
    log_bf, delta, axis, levels, truncated = winner
    return TestResult(log_bf=log_bf, p_dependent=posterior_dependence(log_bf, cfg.prior_odds),
                      level_contributions=tuple(levels), n=n, truncated=bool(truncated),
                      method=method, config=cfg, delta_star=delta,
                      shift_axis=None if delta is None else axis)


def candidate_tables(t: int, samples: list, search: ShiftSearchConfig | None):
    """The segments of samples' tables t, t + 1, ..., lazily: one of their unwrapped
    rows, then each sample's :func:`cut_rows` of x and of y under ``search``."""
    xs = [to_unit_interval(s.x) for s in samples]
    ys = [to_unit_interval(s.y) for s in samples]
    # a lone sample's margins as they are: copying a large one costs a share of its test
    u, v = (xs[0], ys[0]) if len(samples) == 1 else (np.stack(xs), np.stack(ys))
    yield Segment(t, "x", None, u, v)
    for b, sample in enumerate(samples):
        for delta, row in cut_rows(sample.x, search, "x"):
            yield Segment(t + b, "x", delta, row, ys[b])
        for delta, row in cut_rows(sample.y, search, "y"):
            yield Segment(t + b, "y", delta, row, xs[b])


def ebayes_test(sample: PairedSample, cfg: PartitionConfig | None = None,
                scfg: ShiftSearchConfig | None = None) -> TestResult:
    """Dependence test with empirically optimised partition centering.

    The winner of the sample's :func:`candidate_tables` is the row with the
    smallest log Bayes factor, the earliest on ties. So the baseline wins
    unless beaten, reported as ``delta_star = shift_axis = None``, and the
    probability of dependence never falls below the basic test's.
    """
    return run_test(sample, "ebayes", cfg, scfg)


def run_tests(samples, method: str, cfg: PartitionConfig | None = None,
              scfg: ShiftSearchConfig | None = None):
    """Yield the :func:`run_test` result of each sample of one size, in order.

    Each sample is a table of the cuts ``method`` searches, built for one
    call's worth of samples at a time by :func:`candidate_tables` and scored
    by :func:`best_candidates`. Each result is bit for bit the sample's
    alone. Single points take the same route: each margin maps to 0.5, has
    no cuts, and the kernel gives the prior.
    """
    search = shift_search(method, scfg)
    cfg = cfg or PartitionConfig()
    samples = iter(samples)
    first = next(samples, None)
    if first is None:
        return
    samples = _same_size(first, samples)
    step = kernels.rows_per_call(first.n)
    blocks = iter(lambda: list(islice(samples, step)), [])
    tables = (candidate_tables(t, block, search) for t, block in zip(count(0, step), blocks))
    for winner in best_candidates(tables, cfg):
        yield winner_result(winner, first.n, cfg, method)


def _same_size(first: PairedSample, rest):
    """``first``, then ``rest``, each checked to have the size of ``first``."""
    yield first
    for sample in rest:
        if sample.n != first.n:
            raise ValueError(f"samples must share one size, got {first.n} and {sample.n}")
        yield sample


def run_test(sample: PairedSample, method: str, cfg: PartitionConfig | None = None,
             scfg: ShiftSearchConfig | None = None) -> TestResult:
    """The test that ``method`` names, one of :data:`METHODS`, on one sample.

    Its one table is scored by :func:`run_tests`, as a stream of one sample.
    """
    return next(run_tests([sample], method, cfg, scfg))
