"""Analytic dependence evidence from quadrant count trees.

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
from dataclasses import dataclass

import numpy as np

from . import kernels
from .transforms import PairedSample, UnitPoints, to_unit_square
from .tree import CountTree


@dataclass(frozen=True)
class HyperParams:
    """Concentration constant and prior odds of independence over dependence."""

    c: float = 5.0
    prior_odds: float = 1.0

    def __post_init__(self):
        if not (self.c > 0.0):
            raise ValueError("c must be positive")
        if not (self.prior_odds > 0.0):
            raise ValueError("prior_odds must be positive")


@dataclass(frozen=True)
class PartitionConfig:
    """Full configuration of the partition and the evidence computation."""

    c: float = 5.0
    depth_cap: int = 20
    prior_odds: float = 1.0
    mad_normal_consistent: bool = True

    def __post_init__(self):
        if not (self.c > 0.0):
            raise ValueError("c must be positive")
        if not (self.prior_odds > 0.0):
            raise ValueError("prior_odds must be positive")
        if not (1 <= self.depth_cap <= kernels.MAX_DEPTH_CAP):
            raise ValueError(f"depth_cap must be in [1, {kernels.MAX_DEPTH_CAP}]")

    @property
    def hyper(self) -> HyperParams:
        return HyperParams(c=self.c, prior_odds=self.prior_odds)


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


def _log_cell_evidence_raw(n0: int, n1: int, n2: int, n3: int, a: float) -> float:
    lg = math.lgamma
    return (
        lg(n0 + n2 + 2.0 * a)
        + lg(n1 + n3 + 2.0 * a)
        + lg(n0 + n1 + 2.0 * a)
        + lg(n2 + n3 + 2.0 * a)
        - lg(n0 + n1 + n2 + n3 + 4.0 * a)
        - lg(n0 + a)
        - lg(n1 + a)
        - lg(n2 + a)
        - lg(n3 + a)
        + lg(4.0 * a)
        + 4.0 * lg(a)
        - 4.0 * lg(2.0 * a)
    )


def log_cell_evidence(counts, a: float) -> float:
    """Log evidence term of a single cell split, in log-gamma space.

    ``counts`` are the four quadrant occupancies and ``a`` the per-quadrant
    concentration. Cells with at most one point are short-circuited to an
    exact 0.0 (their term cancels analytically).
    """
    n0, n1, n2, n3 = (int(c) for c in counts)
    if min(n0, n1, n2, n3) < 0:
        raise ValueError("counts must be nonnegative")
    if not (a > 0.0):
        raise ValueError("a must be positive")
    if n0 + n1 + n2 + n3 <= 1:
        return 0.0
    return _log_cell_evidence_raw(n0, n1, n2, n3, a)


def log_bayes_factor(tree: CountTree, hp: HyperParams) -> tuple[float, np.ndarray]:
    """Total log Bayes factor and per-level sums for an explicit count tree.

    The total accumulates over cells in stored address order, independently
    of the per-level aggregation, so the level-sum identity is a real check
    rather than a tautology.
    """
    max_level = max((cell.level for cell in tree.cells), default=0)
    levels = np.zeros(max_level, dtype=np.float64)
    total = 0.0
    for cell in tree.cells:
        a = hp.c * cell.level * cell.level
        term = log_cell_evidence(cell.counts, a)
        total += term
        levels[cell.level - 1] += term
    return total, levels


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
