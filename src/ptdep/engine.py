"""Analytic dependence evidence from recursive quadrant partitions.

For every cell holding two or more points, the marginal likelihood under
"margins branch independently" (two Beta-Binomial factors) is compared with
the marginal likelihood under "quadrants branch jointly" (one
Dirichlet-multinomial factor). With matched priors both marginals are
products of Gamma functions, so each cell contributes a closed-form log
evidence term and the total log Bayes factor of independence over
dependence is a finite sum: cells with fewer than two points contribute
exactly zero.

Concentration grows quadratically with depth (``a = c * k**2`` at split
level k), which damps deep levels and makes the depth cap immaterial in
practice; a cap of 20 leaves residual terms far below 1e-6.

Everything here is a pure function of its inputs; results are
deterministic, cells being accumulated in a fixed address order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .transforms import PairedSample, UnitPoints, to_unit_square


@dataclass(frozen=True)
class PartitionConfig:
    """Full configuration of the partition and the evidence computation."""

    c: float = 5.0
    depth_cap: int = 20
    prior_odds: float = 1.0
    mad_normal_consistent: bool = True

    def __post_init__(self):
        for name in ("c", "prior_odds"):
            value = getattr(self, name)
            if not (value > 0.0):
                raise ValueError(f"{name} must be positive")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (1 <= self.depth_cap <= kernels.MAX_DEPTH_CAP):
            raise ValueError(f"depth_cap must be in [1, {kernels.MAX_DEPTH_CAP}]")


@dataclass(frozen=True)
class TestResult:
    """Outcome of one dependence test.

    ``log_bf`` is the log Bayes factor of independence over dependence, so
    negative values favour dependence. ``level_contributions[k-1]`` holds
    the summed contribution of all cells split at level k.
    """

    log_bf: float
    p_dependent: float
    level_contributions: tuple[float, ...]
    n: int
    truncated: bool
    method: str
    config: PartitionConfig
    delta_star: float | None = None
    shift_axis: str | None = None

    @property
    def p_independent(self) -> float:
        return 1.0 - self.p_dependent

    def level_contribution(self, k: int) -> float:
        """Contribution of level k; zero beyond the deepest retained cell."""
        if 1 <= k <= len(self.level_contributions):
            return self.level_contributions[k - 1]
        return 0.0


def log_cell_evidence(counts, a: float) -> float:
    """Log evidence term of a single cell split, in log-gamma space.

    ``counts`` are the four quadrant occupancies and ``a`` the per-quadrant
    concentration. Cells with at most one point are short-circuited to an
    exact 0.0 (their term cancels analytically); others are scored by
    :func:`ptdep.kernels.cell_log_evidence`.
    """
    n0, n1, n2, n3 = (int(c) for c in counts)
    if min(n0, n1, n2, n3) < 0:
        raise ValueError("counts must be nonnegative")
    if not (a > 0.0):
        raise ValueError("a must be positive")
    if n0 + n1 + n2 + n3 <= 1:
        return 0.0
    return float(kernels.cell_log_evidence(n0, n1, n2, n3, a))


def posterior_dependence(log_bf: float, prior_odds: float = 1.0) -> float:
    """Posterior probability of dependence given the log Bayes factor.

    Evaluates ``1 / (1 + prior_odds * exp(log_bf))`` through the stable
    sigmoid branches, so saturation at huge |log_bf| cannot overflow.
    """
    if not np.isfinite(log_bf):
        raise ValueError("log_bf must be finite")
    if not (prior_odds > 0.0):
        raise ValueError("prior_odds must be positive")
    z = log_bf + math.log(prior_odds)
    if z >= 0.0:
        e = math.exp(-z)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(z))


def test_dependence(sample: PairedSample, cfg: PartitionConfig | None = None) -> TestResult:
    """Evidence for dependence between the two margins of a paired sample.

    Pipeline: robust standardisation of each margin, normal-CDF mapping to
    the unit square, quadrant counting to the depth cap, analytic log
    Bayes factor, posterior probability. A single-point sample carries no
    pairing information, so the evidence is exactly the prior.
    """
    return _evaluate(sample, cfg or PartitionConfig())


def unit_points(sample: PairedSample, cfg: PartitionConfig) -> UnitPoints:
    """Both margins of a sample mapped to the unit square as ``cfg`` asks."""
    return to_unit_square(sample, normal_consistent=cfg.mad_normal_consistent)


def _result(levels: np.ndarray, truncated: bool, n: int, cfg: PartitionConfig) -> TestResult:
    """A basic-test result from one sample's trimmed level sums.

    The total is the exactly rounded sum of the level sums, so the level-sum
    identity holds to the last digit at any sample size.
    """
    level_sums = tuple(levels.tolist())
    log_bf = math.fsum(level_sums)
    return TestResult(
        log_bf=log_bf,
        p_dependent=posterior_dependence(log_bf, cfg.prior_odds),
        level_contributions=level_sums,
        n=n,
        truncated=bool(truncated),
        method="basic",
        config=cfg,
    )


def evaluate_rows(u, v, cfg: PartitionConfig) -> list[TestResult]:
    """Basic-test results for a batch of mapped samples, in row order.

    ``u`` and ``v`` hold unit-square coordinates that broadcast to (B, n),
    so a margin shared by every sample is passed once. Each result is bit
    for bit what :func:`test_dependence` gives for that row's sample.
    """
    levels, depth, truncated = kernels.logbf_batch(u, v, cfg.depth_cap, cfg.c)
    n = np.broadcast_shapes(np.shape(u), np.shape(v))[-1]
    return [_result(row[:d], t, n, cfg) for row, d, t in zip(levels, depth, truncated)]


def _evaluate(sample: PairedSample, cfg: PartitionConfig) -> TestResult:
    if sample.n == 1:
        return _result(np.zeros(0), False, 1, cfg)
    pts = unit_points(sample, cfg)
    levels, truncated = kernels.logbf_levels(pts.u, pts.v, cfg.depth_cap, cfg.c)
    return _result(levels, truncated, sample.n, cfg)


def ordered_map(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, on ``workers`` threads when above one.

    Results keep the order of ``items`` whatever the worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
