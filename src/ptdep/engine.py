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
deterministic, cells being accumulated in a fixed address order. This
module holds the configuration, the result type and the posterior; it maps
no margin and builds no result. Every test, :func:`test_dependence`
included, maps and codes each margin once with
:func:`ptdep.ebayes.margin_codes` (the map
:func:`ptdep.transforms.to_unit_interval`, then the Morton half-codes of
:func:`ptdep.kernels.half_codes` at the depth cap), is scored by
:func:`ptdep.ebayes.best_candidates` over
:func:`ptdep.kernels.logbf_batch`, and gets its :class:`TestResult` from
:func:`ptdep.ebayes.winner_result`.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import ClassVar

from . import kernels
from .transforms import PairedSample


# Concentrations ``c`` at which the cell term is trusted. The term sums
# log-gammas of about 4a ln(4a) that cancel to far less, so its rounding
# error grows with a = c * k**2. Against the exact oracle in the tests, cells
# with totals up to 200 at levels 1, 20 and MAX_DEPTH_CAP are within 1e-6
# (absolute) for c from 1e-308 to 1e4, probed at powers of ten; at 1e5 they
# are 4e-6 off, at 1e12 32 off. Below about 1e-310 the term is not finite.
C_RANGE = (1e-300, 1e4)


def _check_integer(name: str, value) -> None:
    """Refuse a bool or a non-integer ``value`` of the setting ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _finite(value) -> bool:
    """Whether the real number ``value`` is finite and a float holds it. An integer or
    a fraction is compared exactly, so one too large for a float is not converted."""
    if isinstance(value, numbers.Rational):
        return abs(value) <= sys.float_info.max
    return math.isfinite(value)


def _check_real(name: str, value, lo: float | None = None, hi: float = math.inf,
                ends: str = "()") -> None:
    """Refuse a bool or a non-number ``value`` of the setting ``name``; with ``lo`` given,
    also a number outside the interval from ``lo`` to ``hi``.

    ``ends`` holds the interval's brackets, "(" or "[" and then ")" or "]". An
    interval with no upper end first refuses a number that is not
    :func:`_finite`; it is named "positive" when open at 0, and ">= lo" when
    closed. A float strictly inside, the common case, skips the costlier
    number check: the permutation null checks its prior odds once per
    permutation.
    """
    if isinstance(value, float) and (lo is None or lo < value < hi):
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if lo is None:
        return
    if hi == math.inf and not _finite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if lo < value < hi or (value, ends[0]) == (lo, "[") or (value, ends[1]) == (hi, "]"):
        return
    least = "positive" if ends[0] == "(" else f">= {lo:g}"
    shown = f"be {least}" if hi == math.inf else f"lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
    raise ValueError(f"{name} must {shown}, got {value}")


@dataclass(frozen=True)
class PartitionConfig:
    """Full configuration of the partition and the evidence computation.

    ``c`` must lie in :data:`C_RANGE`, where the cell term is accurate.
    """

    c: float = 5.0
    depth_cap: int = 20
    prior_odds: float = 1.0
    # not a field, always True: the benchmark's reference_for (perfbench/checks.py) reads it
    mad_normal_consistent: ClassVar[bool] = True

    def __post_init__(self):
        _check_real("c", self.c, 0.0)
        _check_real("prior_odds", self.prior_odds, 0.0)
        _check_real("c", self.c, *C_RANGE, "[]")
        _check_integer("depth_cap", self.depth_cap)
        if not (1 <= self.depth_cap <= kernels.MAX_DEPTH_CAP):
            raise ValueError(f"depth_cap must be in [1, {kernels.MAX_DEPTH_CAP}], "
                             f"got {self.depth_cap}")


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
    :func:`ptdep.kernels.cell_log_evidence`. A bool or a non-number is
    refused as a count, and so are counts whose total no float holds; ``a`` is
    refused as :class:`PartitionConfig` refuses ``c``'s type and sign.
    """
    counts = tuple(counts)
    if not all(isinstance(k, numbers.Real) and not isinstance(k, bool)
               and (isinstance(k, numbers.Integral) or float(k).is_integer()) for k in counts):
        raise ValueError(f"counts must be whole numbers, got {counts}")
    n0, n1, n2, n3 = (int(k) for k in counts)
    if min(n0, n1, n2, n3) < 0:
        raise ValueError(f"counts must be nonnegative, got {counts}")
    _check_real("counts", n0 + n1 + n2 + n3, 0, ends="[)")
    _check_real("a", a, 0.0)
    if n0 + n1 + n2 + n3 <= 1:
        return 0.0
    return float(kernels.cell_log_evidence(n0, n1, n2, n3, float(a)))


def posterior_dependence(log_bf: float, prior_odds: float = 1.0) -> float:
    """Posterior probability of dependence given the log Bayes factor.

    Evaluates ``1 / (1 + prior_odds * exp(log_bf))`` through the stable
    sigmoid branches, so saturation at huge |log_bf| cannot overflow.
    ``prior_odds`` is refused as :class:`PartitionConfig` refuses it.
    """
    if not math.isfinite(log_bf):
        raise ValueError("log_bf must be finite")
    _check_real("prior_odds", prior_odds, 0.0)
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

    This is ``run_test(sample, "basic", cfg)``: the one-row candidate table,
    scored like every other test.
    """
    from .ebayes import run_test  # ebayes imports this module at load

    return run_test(sample, "basic", cfg)

