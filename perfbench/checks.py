"""Output checks, and a reference route for the log Bayes factor.

Every check returns a list of problems; an empty list means the output
passed.  The reference recomputes the evidence by direct recursion over the
quadrant cells with ``math.lgamma``, so it shares no code with the package's
kernels, its tree oracle or its level aggregation.  Only the map to the unit
square (median, scaled MAD, normal CDF, clamp) is restated from the package's
documented definition.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from ptdep.engine import posterior_dependence

EPS = float(np.finfo(np.float64).eps)
MAD_NORMAL_FACTOR = 1.4826
CLAMP_EPS = 1e-15
# Cells this small recurse on Python lists, which is faster than numpy there.
_SMALL_CELL = 64


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_result(res) -> list[str]:
    """Invariants every ``TestResult`` must satisfy."""
    levels = res.level_contributions
    if not _finite((res.log_bf, res.p_dependent, *levels)):
        return ["non-finite value"]
    problems = []
    tol = len(levels) * EPS * math.fsum(abs(b) for b in levels)
    if abs(math.fsum(levels) - res.log_bf) > tol:
        problems.append("level contributions do not sum to log_bf")
    if res.p_dependent != posterior_dependence(res.log_bf, res.config.prior_odds):
        problems.append("p_dependent is not the posterior of log_bf")
    return problems


def check_row(row: dict, prior_odds: float = 1.0) -> list[str]:
    """Invariants of one serialised scan row (no level detail is written)."""
    if row.get("error") is not None:
        return [f"pair skipped: {row['error']}"]
    values = (row.get("log_bf"), row.get("p_dependent"), row.get("p_independent"))
    # 17-digit output writes an integral value such as 1.0 as "1".
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values) \
            or not _finite(values):
        return ["non-finite or missing value"]
    problems = []
    if row["p_dependent"] != posterior_dependence(row["log_bf"], prior_odds):
        problems.append("p_dependent is not the posterior of log_bf")
    if row["p_independent"] != 1.0 - row["p_dependent"]:
        problems.append("p_independent is not 1 - p_dependent")
    return problems


def check_null(null, n_perm: int) -> list[str]:
    """A permutation null: its size, its range and its type-1 threshold."""
    stats = np.asarray(null.null_stats, dtype=np.float64)
    if stats.shape != (n_perm,) or not np.all(np.isfinite(stats)):
        return ["null statistics have the wrong size or are not finite"]
    problems = []
    if np.any(stats < 0.0) or np.any(stats > 1.0):
        problems.append("null statistic outside [0, 1]")
    rank = max(1, math.ceil(n_perm * (1.0 - null.level)))
    if null.threshold != float(np.sort(stats)[rank - 1]):
        problems.append("threshold is not the type-1 empirical quantile")
    return problems


def unit_margin(values, normal_consistent: bool = True) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    location = float(np.median(values))
    factor = MAD_NORMAL_FACTOR if normal_consistent else 1.0
    scale = factor * float(np.median(np.abs(values - location)))
    return np.clip(ndtr((values - location) / scale), CLAMP_EPS, 1.0 - CLAMP_EPS)


class Reference:
    """Per-level log evidence by direct recursion over retained cells.

    Alongside each level sum it keeps the summed magnitude of every log-gamma
    term and the number of cells, from which ``tolerance`` bounds the
    rounding a correct implementation may differ by.
    """

    def __init__(self, x, y, depth_cap: int = 20, c: float = 5.0,
                 normal_consistent: bool = True):
        self.depth_cap = depth_cap
        self.c = c
        self.terms: list[list[float]] = [[] for _ in range(depth_cap)]
        self.magnitude = [0.0] * depth_cap
        self.truncated = False
        scale = 2.0**depth_cap  # a power of two, so floor(u * scale) is exact
        ix = (unit_margin(x, normal_consistent) * scale).astype(np.int64)
        iy = (unit_margin(y, normal_consistent) * scale).astype(np.int64)
        self._split(ix, iy, 1)
        depth = max((k + 1 for k in range(depth_cap) if self.terms[k]), default=0)
        self.levels = [math.fsum(t) for t in self.terms[:depth]]
        self.log_bf = math.fsum(self.levels)

    def _cell(self, k: int, n0: int, n1: int, n2: int, n3: int) -> None:
        a = self.c * k * k
        lg = math.lgamma
        parts = (
            lg(n0 + n2 + 2.0 * a), lg(n1 + n3 + 2.0 * a),
            lg(n0 + n1 + 2.0 * a), lg(n2 + n3 + 2.0 * a),
            -lg(n0 + n1 + n2 + n3 + 4.0 * a),
            -lg(n0 + a), -lg(n1 + a), -lg(n2 + a), -lg(n3 + a),
            lg(4.0 * a), 4.0 * lg(a), -4.0 * lg(2.0 * a),
        )
        self.terms[k - 1].append(math.fsum(parts))
        self.magnitude[k - 1] += math.fsum(abs(p) for p in parts)

    def _split(self, ix: np.ndarray, iy: np.ndarray, k: int) -> None:
        # A cell at depth k - 1 holding two or more points splits at level k.
        if ix.size <= _SMALL_CELL:
            self._split_small(list(zip(ix.tolist(), iy.tolist())), k)
            return
        if k > self.depth_cap:
            self.truncated = True
            return
        shift = self.depth_cap - k
        quadrant = ((ix >> shift) & 1) | (((iy >> shift) & 1) << 1)
        counts = np.bincount(quadrant, minlength=4)
        self._cell(k, *(int(q) for q in counts))
        for q in range(4):
            if counts[q] >= 2:
                inside = quadrant == q
                self._split(ix[inside], iy[inside], k + 1)

    def _split_small(self, points: list[tuple[int, int]], k: int) -> None:
        if k > self.depth_cap:
            self.truncated = True
            return
        shift = self.depth_cap - k
        groups: tuple[list, ...] = ([], [], [], [])
        for px, py in points:
            groups[((px >> shift) & 1) | (((py >> shift) & 1) << 1)].append((px, py))
        self._cell(k, *(len(g) for g in groups))
        for g in groups:
            if len(g) >= 2:
                self._split_small(g, k + 1)

    def tolerance(self, k: int) -> float:
        """Rounding allowance for level k: term evaluation plus summation order."""
        terms = self.terms[k - 1]
        return EPS * (8.0 * self.magnitude[k - 1] + len(terms) * math.fsum(map(abs, terms)))


def check_reference(res, ref: Reference) -> list[str]:
    """Compare a result's level contributions and total with the reference."""
    levels = res.level_contributions
    if len(levels) != len(ref.levels):
        return [f"{len(levels)} levels, reference has {len(ref.levels)}"]
    problems = []
    for k, (got, want) in enumerate(zip(levels, ref.levels), start=1):
        if abs(got - want) > ref.tolerance(k):
            problems.append(f"level {k}: {got!r} differs from reference {want!r}")
    total_tol = sum(ref.tolerance(k) for k in range(1, len(levels) + 1))
    if abs(res.log_bf - ref.log_bf) > total_tol:
        problems.append(f"log_bf {res.log_bf!r} differs from reference {ref.log_bf!r}")
    if res.truncated != ref.truncated:
        problems.append("truncation flag differs from reference")
    return problems


def reference_for(x, y, cfg) -> Reference:
    return Reference(x, y, cfg.depth_cap, cfg.c, cfg.mad_normal_consistent)


def check_ebayes_reference(x, y, res, grid_size: int = 4) -> list[str]:
    """Re-run the default centering search (axis x, quantile grid) on the reference.

    The chosen candidate must score its reported log_bf, and no candidate may
    score lower by more than the rounding allowance.
    """
    cfg = res.config
    x = np.asarray(x, dtype=np.float64)
    lo, hi = float(x.min()), float(x.max())
    q = np.unique(np.quantile(x, np.arange(1, grid_size + 1) / (grid_size + 1.0)))
    scores = {None: reference_for(x, y, cfg)}
    for delta in q[(q > lo) & (q < hi)]:
        wrapped = np.where(x <= delta, (hi - lo) + x, x)
        scores[float(delta)] = reference_for(wrapped, y, cfg)
    if res.delta_star not in scores:
        return [f"delta_star {res.delta_star!r} is not a candidate"]
    chosen = scores[res.delta_star]
    problems = check_reference(res, chosen)
    slack = sum(chosen.tolerance(k) for k in range(1, len(chosen.levels) + 1))
    best = min(ref.log_bf for ref in scores.values())
    if res.log_bf > best + 2.0 * slack:
        problems.append(f"log_bf {res.log_bf!r} is not the minimum {best!r} over candidates")
    return problems
