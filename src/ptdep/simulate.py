"""Synthetic generators, replicate experiments, and the power harness.

Generative models (noise eta ~ N(0, sigma^2), drawn independently per
occurrence):

* linear:       y = 2x/3 + eta
* parabolic:    y = 2x^2/3 + eta
* sinusoidal:   y = 2 sin(x) + eta
* circular:     x = 10 cos(t) + eta, y = 10 sin(t) + eta, t ~ U[0, 2pi]
* checkerboard: x = 10(i_x + t) + eta, y = 10(i_y + t) + eta with
                i_x ~ U{0..3} and a shared t per point
* independent:  x, y i.i.d. standard normal

The checkerboard row index has two published-formula readings, both
shipped: the "verbatim" pattern i_y = (2u) mod i_x (u ~ U{0,1}, mod by 0
defined as 0), which piles y into the bottom block row, and the
"balanced" pattern i_y = (i_x mod 2) + 2u, which alternates block rows in
an actual checker layout so the top-level split carries no marginal
information. The offset range t ~ U[0, 2pi] or U[0, 1) is a second
variant axis.

The x distribution of the function-shaped models defaults to U[-2, 2]
(U[-5, 5] for the sinusoid, giving it about one and a half periods); both
are configurable. Everything is a deterministic function of
(model, n, seed) via PCG64; replicate r of an experiment uses
seed = base_seed + r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .ebayes import METHODS, ShiftSearchConfig, run_test
from .engine import (PartitionConfig, TestResult, ordered_map, posterior_dependence,
                     unit_points)
from .transforms import PairedSample

MODEL_KINDS = ("linear", "parabolic", "sinusoidal", "circular", "checkerboard", "independent")

THETA_FULL = (0.0, 2.0 * math.pi)
THETA_UNIT = (0.0, 1.0)
CHECKER_PATTERNS = ("verbatim", "balanced")

# Default x ranges keep each shape's defining feature in play at sigma = 2:
# a modest linear signal, a symmetric parabola, a sine with ~1.5 periods.
_X_RANGE_DEFAULTS = {
    "linear": (-2.0, 2.0),
    "parabolic": (-2.0, 2.0),
    "sinusoidal": (-5.0, 5.0),
}

# Offsets separating the deterministic seed streams of one experiment.
_NULL_SEED_OFFSET = 1_000_003
_PERM_SEED_OFFSET = 2_000_003


@dataclass(frozen=True)
class SimModel:
    """A generative model: kind, noise level, and shape parameters."""

    kind: str
    sigma: float = 2.0
    x_range: tuple[float, float] | None = None
    theta_range: tuple[float, float] = THETA_FULL
    checker_pattern: str = "verbatim"

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")
        if self.x_range is not None and not (self.x_range[0] < self.x_range[1]):
            raise ValueError("x_range must satisfy lo < hi")
        if not (self.theta_range[0] < self.theta_range[1]):
            raise ValueError("theta_range must satisfy lo < hi")
        if self.checker_pattern not in CHECKER_PATTERNS:
            raise ValueError(f"checker_pattern must be one of {CHECKER_PATTERNS}")

    @property
    def effective_x_range(self) -> tuple[float, float]:
        if self.x_range is not None:
            return self.x_range
        return _X_RANGE_DEFAULTS.get(self.kind, (-2.0, 2.0))


@dataclass(frozen=True)
class ReplicateSummary:
    """Percentiles of the dependence probability over independent replicates."""

    model: str
    n: int
    sigma: float
    reps: int
    method: str
    p5: float
    p25: float
    p50: float
    p75: float
    p95: float


@dataclass(frozen=True)
class PermutationNull:
    """Null statistics from re-paired samples and the resulting threshold."""

    null_stats: np.ndarray
    threshold: float
    level: float


@dataclass(frozen=True)
class PowerReport:
    """True/false positive rates of a statistic under one generative model."""

    model: str
    n: int
    sigma: float
    reps: int
    method: str
    tpr: float
    fpr: float
    threshold: float
    threshold_source: str  # posterior_0.5 | permutation_quantile


def generate(model: SimModel, n: int, seed: int) -> PairedSample:
    """Draw one sample of size n; identical seeds give identical samples."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    kind = model.kind
    sigma = model.sigma
    if kind == "independent":
        return PairedSample(x=rng.standard_normal(n), y=rng.standard_normal(n))
    if kind in ("linear", "parabolic", "sinusoidal"):
        lo, hi = model.effective_x_range
        x = rng.uniform(lo, hi, n)
        eta = rng.normal(0.0, sigma, n) if sigma > 0 else np.zeros(n)
        if kind == "linear":
            y = 2.0 * x / 3.0 + eta
        elif kind == "parabolic":
            y = 2.0 * x * x / 3.0 + eta
        else:
            y = 2.0 * np.sin(x) + eta
        return PairedSample(x=x, y=y)
    if kind == "circular":
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        eta_x = rng.normal(0.0, sigma, n) if sigma > 0 else np.zeros(n)
        eta_y = rng.normal(0.0, sigma, n) if sigma > 0 else np.zeros(n)
        return PairedSample(x=10.0 * np.cos(theta) + eta_x, y=10.0 * np.sin(theta) + eta_y)
    # checkerboard
    i_x = rng.integers(0, 4, n)
    u2 = rng.integers(0, 2, n)
    if model.checker_pattern == "balanced":
        i_y = (i_x % 2) + 2 * u2
    else:
        i_y = np.where(i_x == 0, 0, (2 * u2) % np.maximum(i_x, 1))
    theta = rng.uniform(model.theta_range[0], model.theta_range[1], n)
    eta_x = rng.normal(0.0, sigma, n) if sigma > 0 else np.zeros(n)
    eta_y = rng.normal(0.0, sigma, n) if sigma > 0 else np.zeros(n)
    return PairedSample(x=10.0 * (i_x + theta) + eta_x, y=10.0 * (i_y + theta) + eta_y)


def run_replicates(
    model: SimModel,
    n: int,
    reps: int,
    cfg: PartitionConfig | None = None,
    seed: int = 0,
    method: str = "basic",
    scfg: ShiftSearchConfig | None = None,
    workers: int = 1,
) -> list[TestResult]:
    """Full test results for ``reps`` independent generations of the model."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    cfg = cfg or PartitionConfig()
    return ordered_map(lambda r: run_test(generate(model, n, seed + r), method, cfg, scfg),
                       range(reps), workers)


def replicate_experiment(
    model: SimModel,
    n: int,
    reps: int,
    cfg: PartitionConfig | None = None,
    seed: int = 0,
    method: str = "basic",
    scfg: ShiftSearchConfig | None = None,
    workers: int = 1,
) -> ReplicateSummary:
    """Percentile summary (5/25/50/75/95) of p_dependent over replicates."""
    results = run_replicates(model, n, reps, cfg, seed, method, scfg, workers)
    p = np.array([r.p_dependent for r in results])
    q = np.percentile(p, [5, 25, 50, 75, 95])
    return ReplicateSummary(
        model=model.kind,
        n=n,
        sigma=model.sigma,
        reps=reps,
        method=method,
        p5=float(q[0]),
        p25=float(q[1]),
        p50=float(q[2]),
        p75=float(q[3]),
        p95=float(q[4]),
    )


def default_statistic(cfg: PartitionConfig, method: str = "basic",
                      scfg: ShiftSearchConfig | None = None) -> Callable[[PairedSample], float]:
    """The shipped dependence statistic: posterior probability of dependence."""
    return lambda s: run_test(s, method, cfg, scfg).p_dependent


def abs_pearson(sample: PairedSample) -> float:
    """|Pearson r| baseline; exists to self-test the permutation machinery."""
    if sample.n < 2:
        return 0.0
    r = np.corrcoef(sample.x, sample.y)[0, 1]
    return float(abs(r)) if np.isfinite(r) else 0.0


def empirical_quantile(values: np.ndarray, p: float) -> float:
    """Type-1 (order statistic) empirical quantile: x_(ceil(n*p)) 1-indexed."""
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    s = np.sort(np.asarray(values, dtype=np.float64))
    rank = max(1, math.ceil(s.size * p))
    return float(s[rank - 1])


def permutation_null(
    sample: PairedSample,
    n_perm: int = 500,
    cfg: PartitionConfig | None = None,
    seed: int = 0,
    statistic: Callable[[PairedSample], float] | None = None,
    level: float = 0.05,
) -> PermutationNull:
    """Null distribution of a statistic under random re-pairing of y with x.

    Each permutation shuffles y against x (marginals are preserved
    exactly). The detection threshold is the type-1 empirical
    ``1 - level`` quantile of the null statistics.
    """
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    cfg = cfg or PartitionConfig()
    rng = np.random.default_rng(seed)
    if statistic is None and sample.n > 1:
        null = _default_null(sample, n_perm, cfg, rng)
    else:
        stat = statistic or default_statistic(cfg)
        null = np.empty(n_perm)
        for i in range(n_perm):
            null[i] = stat(PairedSample(x=sample.x, y=rng.permutation(sample.y)))
    return PermutationNull(
        null_stats=null,
        threshold=empirical_quantile(null, 1.0 - level),
        level=level,
    )


def _default_null(sample: PairedSample, n_perm: int, cfg: PartitionConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """Null statistics of the default statistic, scored in batches.

    Re-pairing changes no margin, so the sample is mapped once and each
    permutation re-pairs the mapped v through permuted indices. Permuting
    each row of a (B, n) index array draws what B ``rng.permutation(n)``
    calls draw, so the re-pairing is that of ``rng.permutation(sample.y)``.
    Each statistic is the posterior of the fsum of a level row, as in
    :func:`~ptdep.engine.test_dependence`. Only one batch of permutations
    is held at a time.
    """
    pts = unit_points(sample, cfg)
    null = np.empty(n_perm)
    step = kernels.rows_per_call(sample.n)
    for lo in range(0, n_perm, step):
        hi = min(lo + step, n_perm)
        order = rng.permuted(np.broadcast_to(np.arange(sample.n), (hi - lo, sample.n)), axis=1)
        levels, depth, _ = kernels.logbf_batch(pts.u, pts.v[order], cfg.depth_cap, cfg.c)
        null[lo:hi] = [posterior_dependence(math.fsum(row[:d]), cfg.prior_odds)
                       for row, d in zip(levels, depth)]
    return null


def power_experiment(
    model: SimModel,
    n: int,
    reps: int,
    cfg: PartitionConfig | None = None,
    seed: int = 0,
    method: str = "basic",
    scfg: ShiftSearchConfig | None = None,
    statistic: Callable[[PairedSample], float] | None = None,
    threshold_source: str = "posterior_0.5",
    level: float = 0.05,
    n_perm: int = 500,
    workers: int = 1,
) -> PowerReport:
    """True/false positive rates of a dependence statistic.

    TPR counts replicates of ``model`` whose statistic exceeds the
    threshold; FPR does the same for matched replicates of the independent
    model. ``posterior_0.5`` uses the natural fixed cut at 0.5 for the
    probability statistic; ``permutation_quantile`` recalibrates the
    threshold per replicate from ``n_perm`` re-pairings (the reported
    threshold is then the mean across replicates). A custom ``statistic``
    callable plugs any scalar dependence measure into the same harness.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if threshold_source not in ("posterior_0.5", "permutation_quantile"):
        raise ValueError(f"unknown threshold_source {threshold_source!r}")
    cfg = cfg or PartitionConfig()
    stat = statistic or default_statistic(cfg, method, scfg)
    # The default basic statistic takes the batched null.
    null_stat = None if statistic is None and method == "basic" else stat
    null_model = SimModel(kind="independent", sigma=model.sigma)

    def detect(sim: SimModel, base: int, r: int) -> tuple[bool, float]:
        sample = generate(sim, n, base + r)
        value = stat(sample)
        if threshold_source == "posterior_0.5":
            return value > 0.5, 0.5
        perm = permutation_null(
            sample, n_perm=n_perm, cfg=cfg, seed=base + _PERM_SEED_OFFSET + r,
            statistic=null_stat, level=level,
        )
        return value > perm.threshold, perm.threshold

    def sweep(sim: SimModel, base: int) -> tuple[float, float]:
        hits = ordered_map(lambda r: detect(sim, base, r), range(reps), workers)
        rate = sum(1 for h, _ in hits if h) / reps
        thr = sum(t for _, t in hits) / reps
        return rate, thr

    tpr, thr_dep = sweep(model, seed)
    fpr, thr_null = sweep(null_model, seed + _NULL_SEED_OFFSET)
    return PowerReport(
        model=model.kind,
        n=n,
        sigma=model.sigma,
        reps=reps,
        method=method if statistic is None else "custom",
        tpr=tpr,
        fpr=fpr,
        threshold=0.5 if threshold_source == "posterior_0.5" else 0.5 * (thr_dep + thr_null),
        threshold_source=threshold_source,
    )
