"""Marginal standardisation and the one margin map of paired samples.

The dependence test works on points in the open unit square. Each margin
gets there through :func:`to_unit_interval`, the only margin map, which
every route calls through :func:`ptdep.ebayes.margin_codes`, once per
margin: robust standardisation with the median and the normal-consistent
scaled median absolute deviation, then the standard normal CDF.
Partitioning the unit square into equal quadrants is then the same as
partitioning the raw axes at normal quantiles centred on the median.

Each median takes one selection (``np.partition`` at the middle index), not
the two of ``np.median``, with the same float.

:func:`wrap_at` cuts one margin at a threshold and juxtaposes the two
pieces, which relocates the central split of the downstream partition.
Callers re-standardise the wrapped data; nothing here caches statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from ._ufuncs import ndtr

from .errors import DegenerateSample

# Scales the MAD to estimate sigma under normality (1 / Phi^-1(0.75)).
MAD_NORMAL_FACTOR = 1.4826

# Keeps mapped coordinates strictly inside (0, 1) so no point sits on a
# partition boundary at every depth.
CLAMP_EPS = 1e-15


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must contain at least one value")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class PairedSample:
    """Two equal-length vectors of finite real observations."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _as_vector(self.x, "x")
        y = _as_vector(self.y, "y")
        if x.size != y.size:
            raise ValueError(f"x and y must have equal length, got {x.size} and {y.size}")
        x = x.copy()
        y = y.copy()
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class RobustStats:
    """Median location and MAD-based scale for one margin."""

    location: float
    scale: float
    fallback_used: bool = False


def _median(arr: np.ndarray) -> float:
    """``np.median`` of a NaN-free vector, bit for bit, from one selection.

    ``np.median`` also partitions at the last index for its NaN check and
    takes several times as long; the vectors here hold no NaN. The lower
    middle value of an even count is the largest value below the selected
    one. Like ``np.mean`` of the middle values, the sum starts from +0.0,
    which fixes the sign of a zero median.
    """
    h = arr.size // 2
    part = np.partition(arr, h)
    if arr.size % 2:
        return float(0.0 + part[h])
    return float((0.0 + part[:h].max() + part[h]) / 2.0)


def robust_location_scale(values) -> RobustStats:
    """Median and scaled-MAD spread of a vector.

    Scale is ``1.4826 * median(|v - median|)``. A zero MAD falls back to the
    sample standard deviation with ``fallback_used`` set. A margin whose
    values are all equal has no spread and raises DegenerateSample, even where
    rounding leaves its standard deviation a few ulps above zero.
    """
    arr = _as_vector(values, "values")
    location = _median(arr)
    mad = _median(np.abs(arr - location))
    scale = MAD_NORMAL_FACTOR * mad
    fallback = False
    if scale == 0.0:
        fallback = True
        # over the sorted values, so the scale depends on the multiset only
        ordered = np.sort(arr)
        scale = float(np.std(ordered, ddof=1)) if ordered[0] != ordered[-1] else 0.0
        if not np.isfinite(scale) or scale == 0.0:
            raise DegenerateSample("margin has zero spread (all values identical)")
    return RobustStats(location=location, scale=scale, fallback_used=fallback)


def to_unit_interval(values) -> np.ndarray:
    """Map one margin through robust standardisation and the normal CDF.

    Coordinates are clamped to [CLAMP_EPS, 1 - CLAMP_EPS] so extreme
    outliers cannot land exactly on the unit-interval boundary. The map
    depends on the values only as a multiset, so a permuted margin maps to
    the same permutation of the mapped margin. One finite value is its own
    median, so it maps to 0.5 (z = 0), though it has no spread.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 1:
        _as_vector(arr, "values")  # rejects a non-finite value
        return np.full(1, 0.5)
    stats = robust_location_scale(arr)
    return np.clip(ndtr((arr - stats.location) / stats.scale), CLAMP_EPS, 1.0 - CLAMP_EPS)


def wrap_at(values: np.ndarray, delta) -> np.ndarray:
    """Cut a margin at ``delta`` and wrap the low piece above the top.

    Values ``<= delta`` become ``(max - min) + value``; the others are
    untouched.
    """
    lo = float(values.min())
    hi = float(values.max())
    return np.where(values <= delta, (hi - lo) + values, values)
