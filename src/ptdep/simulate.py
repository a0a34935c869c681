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
from itertools import tee

import numpy as np

from . import kernels
# the model names, kept where the CLI's parser reads them without loading this module
from ._models import CHECKER_PATTERNS, MODEL_KINDS, THETA_FULL, THETA_UNIT  # noqa: F401
from .ebayes import (Segment, ShiftSearchConfig, best_candidates, cut_rows, margin_codes,
                     run_tests, shift_search)
from .engine import (PartitionConfig, TestResult, _check_integer, _check_real, _finite,
                     posterior_dependence)
from .transforms import PairedSample

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
        _check_real("sigma", self.sigma, 0.0, ends="[)")
        for name in ("x_range", "theta_range"):
            bounds = getattr(self, name)
            if bounds is None:
                continue
            if not isinstance(bounds, (tuple, list)) or len(bounds) != 2:
                raise ValueError(f"{name} must be a pair (lo, hi), got {bounds!r}")
            lo, hi = bounds
            _check_real(name, lo)
            _check_real(name, hi)
            if not (lo < hi):
                raise ValueError(f"{name} must satisfy lo < hi, got ({lo}, {hi})")
            if not (_finite(lo) and _finite(hi) and _finite(hi - lo)):  # width once ends fit
                raise ValueError(f"{name} must have finite ends and width, got ({lo}, {hi})")
            object.__setattr__(self, name, tuple(bounds))  # a list is kept as a tuple: hashable
        if self.checker_pattern not in CHECKER_PATTERNS:
            raise ValueError(f"checker_pattern must be one of {CHECKER_PATTERNS}, "
                             f"got {self.checker_pattern!r}")
        # a parameter the kind never draws from is refused, not ignored; sigma is
        # kept for independent, whose model is the null of every power experiment
        if self.x_range is not None and self.kind not in _X_RANGE_DEFAULTS:
            raise ValueError(f"x_range does not apply to the {self.kind} model")
        if self.kind != "checkerboard":
            for name, default in (("theta_range", THETA_FULL), ("checker_pattern", "verbatim")):
                if getattr(self, name) != default:
                    raise ValueError(f"{name} does not apply to the {self.kind} model")

    @property
    def effective_x_range(self) -> tuple[float, float] | None:
        """The range x is drawn from uniformly; None for a kind that draws no uniform x."""
        return self.x_range or _X_RANGE_DEFAULTS.get(self.kind)


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
    """True/false positive rates of a test under one generative model."""

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
    """Draw one sample of size n; identical seeds give identical samples.

    Finite parameters can still overflow (a parabola over a huge x range, a
    huge sigma); such a sample is refused with a ``ValueError`` that names the
    parameters the kind draws from.
    """
    _check_counts(n=n, seed=seed)
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = _draw(model, n, np.random.default_rng(seed))
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        drawn = [f"sigma={model.sigma}"]
        if model.kind in _X_RANGE_DEFAULTS:
            drawn.append(f"x_range={model.effective_x_range}")
        if model.kind == "checkerboard":
            drawn.append(f"theta_range={model.theta_range}")
        raise ValueError(f"the {model.kind} model gives non-finite values at "
                         + " and ".join(drawn))
    return PairedSample(x=x, y=y)


def _draw(model: SimModel, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The x and y of one sample of ``model``, drawn from ``rng``."""
    kind = model.kind
    sigma = model.sigma
    if kind == "independent":
        return rng.standard_normal(n), rng.standard_normal(n)
    if kind in ("linear", "parabolic", "sinusoidal"):
        lo, hi = model.effective_x_range
        x = rng.uniform(lo, hi, n)
        eta = rng.normal(0.0, sigma, n)
        if kind == "linear":
            y = 2.0 * x / 3.0 + eta
        elif kind == "parabolic":
            y = 2.0 * x * x / 3.0 + eta
        else:
            y = 2.0 * np.sin(x) + eta
        return x, y
    if kind == "circular":
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        eta_x = rng.normal(0.0, sigma, n)
        eta_y = rng.normal(0.0, sigma, n)
        return 10.0 * np.cos(theta) + eta_x, 10.0 * np.sin(theta) + eta_y
    # checkerboard
    i_x = rng.integers(0, 4, n)
    u2 = rng.integers(0, 2, n)
    if model.checker_pattern == "balanced":
        i_y = (i_x % 2) + 2 * u2
    else:
        i_y = np.where(i_x == 0, 0, (2 * u2) % np.maximum(i_x, 1))
    theta = rng.uniform(model.theta_range[0], model.theta_range[1], n)
    eta_x = rng.normal(0.0, sigma, n)
    eta_y = rng.normal(0.0, sigma, n)
    return 10.0 * (i_x + theta) + eta_x, 10.0 * (i_y + theta) + eta_y


def run_replicates(
    model: SimModel,
    n: int,
    reps: int,
    cfg: PartitionConfig | None = None,
    seed: int = 0,
    method: str = "basic",
    scfg: ShiftSearchConfig | None = None,
) -> list[TestResult]:
    """Full test results for ``reps`` independent generations of the model.

    Replicates are generated as :func:`~ptdep.ebayes.run_tests` reads them.
    """
    _check_counts(n=n, reps=reps, seed=seed)
    samples = (generate(model, n, seed + r) for r in range(reps))
    return list(run_tests(samples, method, cfg, scfg))


def replicate_experiment(
    model: SimModel,
    n: int,
    reps: int,
    cfg: PartitionConfig | None = None,
    seed: int = 0,
    method: str = "basic",
    scfg: ShiftSearchConfig | None = None,
) -> ReplicateSummary:
    """Percentile summary (5/25/50/75/95) of p_dependent over replicates."""
    results = run_replicates(model, n, reps, cfg, seed, method, scfg)
    p = np.array([r.p_dependent for r in results])
    q = np.percentile(p, [5, 25, 50, 75, 95])
    return ReplicateSummary(model.kind, n, model.sigma, reps, method, *map(float, q))


def empirical_quantile(values: np.ndarray, p: float) -> float:
    """Type-1 (order statistic) empirical quantile: x_(ceil(n*p)) 1-indexed."""
    _check_real("p", p, 0.0, 1.0, "(]")
    s = np.sort(np.asarray(values, dtype=np.float64))
    rank = max(1, math.ceil(s.size * p))
    return float(s[rank - 1])


def permutation_null(
    sample: PairedSample,
    n_perm: int = 500,
    cfg: PartitionConfig | None = None,
    seed: int = 0,
    level: float = 0.05,
) -> PermutationNull:
    """Null distribution of the basic test's p_dependent under random re-pairing of y with x.

    Each permutation shuffles y against x (marginals are preserved
    exactly). The detection threshold is the type-1 empirical
    ``1 - level`` quantile of the null statistics.
    """
    _check_counts(seed=seed)
    _check_null(n_perm, level)
    null = _default_null(sample, n_perm, cfg or PartitionConfig(), "basic", None,
                         np.random.default_rng(seed))
    return PermutationNull(null, empirical_quantile(null, 1.0 - level), level)


def _check_counts(**given: int) -> None:
    """Refuse a bool or non-integer count, a negative seed, or another count below 1."""
    for name, value in given.items():
        _check_integer(name, value)
        least = 0 if name == "seed" else 1
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def _check_null(n_perm: int, level: float) -> None:
    """Refuse a null of fewer than one permutation, or a level outside (0, 1)."""
    _check_counts(n_perm=n_perm)
    _check_real("level", level, 0.0, 1.0)


def _orders(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` permutations of ``range(n)``, the draws of as many ``rng.permutation(n)`` calls.

    Permuting each row of a (count, n) index array draws what ``count``
    ``rng.permutation(n)`` calls draw, and those permute a vector of n values
    as ``rng.permutation`` of the vector does.
    """
    return rng.permuted(np.broadcast_to(np.arange(n), (count, n)), axis=1)


def _default_null(sample: PairedSample, n_perm: int, cfg: PartitionConfig, method: str,
                  scfg: ShiftSearchConfig | None, rng: np.random.Generator) -> np.ndarray:
    """Null p_dependent values of ``method``'s test, scored in batches.

    Re-pairing changes no margin, so each margin is mapped and coded once
    (:func:`~ptdep.ebayes.margin_codes`) and each axis's
    :func:`~ptdep.ebayes.cut_rows` are built once, and wrapping, mapping and
    coding y commute with it: each permutation re-pairs y's codes and cut
    rows by indices :func:`_orders` draws as ``rng.permutation(sample.y)``
    would. A batch of permutations is one segment per candidate row, and
    only one batch is held at a time.
    """
    search = shift_search(method, scfg)
    u, v = margin_codes(sample.x, cfg.depth_cap), margin_codes(sample.y, cfg.depth_cap)
    x_rows = [(None, u), *cut_rows(sample.x, search, "x", cfg.depth_cap)]
    y_rows = list(cut_rows(sample.y, search, "y", cfg.depth_cap))
    step = max(1, kernels.rows_per_call(sample.n) // (len(x_rows) + len(y_rows)))

    def batches():
        for lo in range(0, n_perm, step):
            order = _orders(rng, min(step, n_perm - lo), sample.n)
            fixed = v[order]
            yield ([Segment(lo, "x", delta, row, fixed) for delta, row in x_rows]
                   + [Segment(lo, "y", delta, row[order], u) for delta, row in y_rows])

    return np.fromiter((posterior_dependence(winner[0], cfg.prior_odds)
                        for winner in best_candidates(batches(), cfg)), float, n_perm)


def power_experiment(
    model: SimModel,
    n: int,
    reps: int,
    cfg: PartitionConfig | None = None,
    seed: int = 0,
    method: str = "basic",
    scfg: ShiftSearchConfig | None = None,
    threshold_source: str = "posterior_0.5",
    level: float | None = None,
    n_perm: int | None = None,
) -> PowerReport:
    """True/false positive rates of ``method``'s test.

    TPR counts replicates of ``model`` whose p_dependent exceeds the
    threshold; FPR does the same for matched replicates of the independent
    model. ``posterior_0.5`` uses the natural fixed cut at 0.5 for the
    probability statistic; ``permutation_quantile`` recalibrates the
    threshold per replicate from ``n_perm`` re-pairings (default 500) at
    ``level`` (default 0.05), and the reported threshold is then the mean
    across replicates. The replicates are scored in batches by
    :func:`~ptdep.ebayes.run_tests`, and each null by the same batched route
    as :func:`permutation_null`.

    A setting the run would not read is refused, not ignored: ``level`` and
    ``n_perm`` under ``posterior_0.5``. Every setting is checked before any
    replicate is drawn.
    """
    _check_counts(n=n, reps=reps, seed=seed)
    shift_search(method, scfg)  # the method check
    if threshold_source not in ("posterior_0.5", "permutation_quantile"):
        raise ValueError(f"unknown threshold_source {threshold_source!r}")
    for name, value in (("n_perm", n_perm), ("level", level)):
        if threshold_source == "posterior_0.5" and value is not None:
            raise ValueError(f"{name} applies only with threshold_source 'permutation_quantile'")
    level, n_perm = 0.05 if level is None else level, 500 if n_perm is None else n_perm
    _check_null(n_perm, level)
    cfg = cfg or PartitionConfig()
    null_model = SimModel(kind="independent", sigma=model.sigma)

    def sweep(sim: SimModel, base: int) -> tuple[float, float]:
        samples, scored = tee(generate(sim, n, base + r) for r in range(reps))
        hits, thr = 0, 0
        for r, (sample, res) in enumerate(zip(samples, run_tests(scored, method, cfg, scfg))):
            t = 0.5
            if threshold_source == "permutation_quantile":
                rng = np.random.default_rng(base + _PERM_SEED_OFFSET + r)
                null = _default_null(sample, n_perm, cfg, method, scfg, rng)
                t = empirical_quantile(null, 1.0 - level)
            hits += bool(res.p_dependent > t)
            thr += t
        return hits / reps, thr / reps

    tpr, thr_dep = sweep(model, seed)
    fpr, thr_null = sweep(null_model, seed + _NULL_SEED_OFFSET)
    return PowerReport(
        model=model.kind,
        n=n,
        sigma=model.sigma,
        reps=reps,
        method=method,
        tpr=tpr,
        fpr=fpr,
        threshold=0.5 if threshold_source == "posterior_0.5" else 0.5 * (thr_dep + thr_null),
        threshold_source=threshold_source,
    )
