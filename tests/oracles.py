"""Independent oracles used to pin expected values.

These deliberately avoid the library's log-gamma code paths: cell evidence
is evaluated as an exact ratio of big-integer rising factorials, the
normal CDF with adaptive quadrature of the density and with the asymptotic
tail series, and the one-dimensional marginal likelihood with
Beta-function identities checked against numerical integration.

The reference quadrant tree lives here too. It builds every retained cell
by explicit recursion over rectangles, so it checks the kernel's counting
route; it scores cells through ``ptdep.log_cell_evidence``, whose formula
is checked against the factorial oracle above.

:func:`direct_test` is the basic test scored by one plain kernel call,
outside the package's candidate-table route, so batched routes are checked
against something other than themselves.

:func:`json_text` and :func:`csv_text` write the CLI's output formats the
plain way, a whole payload at once through ``json.dumps`` and ``csv.writer``,
so the streamed writer is checked byte for byte against them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import namedtuple
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad

from ptdep import ebayes, engine, kernels, log_cell_evidence
from ptdep.ebayes import run_test
from ptdep.simulate import SimModel, generate
from ptdep.transforms import PairedSample, to_unit_interval


def exact_log_cell_evidence(counts, a: float) -> float:
    """Cell evidence as an exact ratio of integers, for any positive float ``a``.

    Every Gamma ratio in the cell term is a rising factorial,
    Gamma(x + m) / Gamma(x) = x (x + 1) ... (x + m - 1), so the evidence is

        prod_pairs (2a)^(m) / ((4a)^(N) prod_i a^(n_i)),

    with m running over the four pair sums and N the total. A float is the
    exact rational p / q, and the powers of q cancel between numerator and
    denominator, so both are products of the integers ``s * p + i * q``.
    For an integer ``a`` this is the ratio of factorials of the closed form.
    Its log is taken at 60 decimal digits.
    """
    if not (a > 0.0):
        raise ValueError("oracle requires a > 0")
    p, q = float(a).as_integer_ratio()
    n0, n1, n2, n3 = (int(c) for c in counts)

    def rising(s: int, m: int) -> int:
        out = 1
        for i in range(m):
            out *= s * p + i * q
        return out

    num = rising(2, n0 + n2) * rising(2, n1 + n3) * rising(2, n0 + n1) * rising(2, n2 + n3)
    den = (rising(4, n0 + n1 + n2 + n3) * rising(1, n0) * rising(1, n1) * rising(1, n2)
           * rising(1, n3))
    with mpmath.workdps(60):
        return float(mpmath.log(mpmath.mpf(num)) - mpmath.log(mpmath.mpf(den)))


def direct_test(sample, cfg=None):
    """The basic test of ``sample`` from one direct kernel call.

    Maps both margins with ``transforms.to_unit_interval``, codes them with
    ``kernels.half_codes``, scores the one row with ``kernels.logbf_batch``,
    trims it to its depth and sums it with ``math.fsum``. A constant margin
    raises ``DegenerateSample`` from the map.
    """
    cfg = cfg or engine.PartitionConfig()
    u, v = (kernels.half_codes(to_unit_interval(m), cfg.depth_cap) for m in (sample.x, sample.y))
    levels, depth, truncated = kernels.logbf_batch(u, v, cfg.depth_cap, cfg.c)
    row = levels[0, : depth[0]].tolist()
    return ebayes.winner_result((math.fsum(row), None, "x", row, bool(truncated[0])), sample.n,
                                cfg, "basic")


def json_text(obj) -> str:
    """``obj`` as JSON: ", " and ": " separators, a str as ``json.dumps`` gives it with
    ``ensure_ascii=False``, a key as it gives it by default, and a number to 17
    significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(json_text(v) for v in obj) + "]"
    return "{" + ", ".join(json.dumps(str(k)) + ": " + json_text(v) for k, v in obj.items()) + "}"


def csv_text(rows, columns) -> str:
    """``rows`` as CSV under the header ``columns``: None as an empty cell, a str as it
    is, and any other value as :func:`json_text` writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        cells = (row.get(col) for col in columns)
        writer.writerow(["" if v is None else v if isinstance(v, str) else json_text(v)
                         for v in cells])
    return buf.getvalue()


def default_statistic(cfg, method="basic", scfg=None):
    """The package's dependence statistic of one sample: ``run_test``'s p_dependent.

    Called once per sample, it is the looped route that the batched nulls and
    power runs are checked against.
    """
    return lambda s: run_test(s, method, cfg, scfg).p_dependent


def looped_null(sample, n_perm, rng, stat):
    """``stat`` of ``n_perm`` re-pairings of ``sample``, one ``rng.permutation`` of y each."""
    return np.array([stat(PairedSample(x=sample.x, y=rng.permutation(sample.y)))
                     for _ in range(n_perm)])


def looped_power(model, n, reps, cfg, seed, method="basic", scfg=None,
                 threshold_source="posterior_0.5", level=0.05, n_perm=500):
    """``power_experiment``'s (tpr, fpr, threshold), one replicate and permutation at a time.

    A sweep from seed ``base`` draws replicate r with seed ``base + r`` and
    re-pairs it with the generator of seed ``base + 2_000_003 + r``; the
    model's sweep starts at ``seed``, the independent model's at
    ``seed + 1_000_003``.
    """
    stat = default_statistic(cfg, method, scfg)

    def sweep(sim, base):
        hits, thr = 0, 0
        for r in range(reps):
            sample = generate(sim, n, base + r)
            t = 0.5
            if threshold_source == "permutation_quantile":
                rng = np.random.default_rng(base + 2_000_003 + r)
                t = quantile_type1(looped_null(sample, n_perm, rng, stat), 1.0 - level)
            hits += bool(stat(sample) > t)
            thr += t
        return hits / reps, thr / reps

    tpr, thr_dep = sweep(model, seed)
    fpr, thr_null = sweep(SimModel(kind="independent", sigma=model.sigma), seed + 1_000_003)
    if threshold_source == "posterior_0.5":
        return tpr, fpr, 0.5
    return tpr, fpr, 0.5 * (thr_dep + thr_null)


def normal_cdf_quadrature(z: float) -> float:
    """Standard normal CDF by adaptive quadrature of the density from 0."""
    density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    integral, _ = quad(density, 0.0, z, epsabs=1e-15, epsrel=1e-13)
    return 0.5 + integral


def normal_tail_series(z: float, terms: int = 6) -> float:
    """Upper-tail asymptotic series for large positive z.

    Q(z) ~ phi(z)/z * sum_k (-1)^k (2k-1)!! / z^(2k); alternating, so the
    truncation error is below the first omitted term.
    """
    if z < 4.0:
        raise ValueError("series oracle is for the far tail only")
    phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    total = 0.0
    double_fact = 1.0
    sign = 1.0
    power = 1.0
    for k in range(terms):
        if k > 0:
            double_fact *= 2 * k - 1
            power *= z * z
            sign = -sign
        total += sign * double_fact / power
    return phi / z * total


def log_marglik_1d(cell_counts, alphas) -> float:
    """One-dimensional binary-partition marginal likelihood in log space.

    ``cell_counts`` is a list of (n_left, n_right) per junction and
    ``alphas`` the matching (a_left, a_right) Beta parameters. Product of
    Beta-function ratios over junctions.
    """
    from scipy.special import betaln

    total = 0.0
    for (n_l, n_r), (a_l, a_r) in zip(cell_counts, alphas):
        total += betaln(n_l + a_l, n_r + a_r) - betaln(a_l, a_r)
    return float(total)


def beta_binomial_quadrature(n_left: int, n_right: int, a_left: float, a_right: float) -> float:
    """One junction's marginal by numerically integrating out the branch probability."""
    from scipy.special import betaln

    prior_norm = math.exp(betaln(a_left, a_right))

    def integrand(t: float) -> float:
        return (
            t ** (n_left + a_left - 1.0) * (1.0 - t) ** (n_right + a_right - 1.0) / prior_norm
        )

    value, _ = quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)
    return math.log(value)


def quantile_type1(values, p: float) -> float:
    """Order-statistic quantile: smallest x with F_hat(x) >= p."""
    s = sorted(values)
    rank = max(1, math.ceil(len(s) * p))
    return s[rank - 1]


def brute_force_quadrant_counts(u, v, depth_cap: int):
    """All retained cells by direct per-point address enumeration.

    Independent of :func:`build_count_tree`: computes each point's digit
    path with plain arithmetic and groups with a dict.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    paths = []
    for x, y in zip(u, v):
        digits = []
        for _ in range(depth_cap):
            dx = 1 if x >= 0.5 else 0
            dy = 1 if y >= 0.5 else 0
            digits.append(dx | (dy << 1))
            x = x * 2.0 - dx
            y = y * 2.0 - dy
        paths.append(tuple(digits))
    cells = {}
    for depth in range(depth_cap):
        groups: dict[tuple, list] = {}
        for path in paths:
            groups.setdefault(path[:depth], []).append(path[depth])
        for address, digits in sorted(groups.items()):
            if len(digits) >= 2:
                counts = tuple(digits.count(d) for d in range(4))
                cells[address] = counts
    return cells


# ---------------------------------------------------------------------------
# reference quadrant tree
#
# Each cell splits into four equal quadrants addressed by digits 0..3
# (0 bottom-left, 1 bottom-right, 2 top-left, 3 top-right). A cell is
# retained when it holds at least two points; its record stores how those
# points distribute over the four children. Recursion stops at single-point
# cells or at the depth cap.

Rect = namedtuple("Rect", ["x_lo", "y_lo", "x_hi", "y_hi"])

UNIT_SQUARE = Rect(0.0, 0.0, 1.0, 1.0)


@dataclass(frozen=True)
class CellCounts:
    """Quadrant occupancy of one retained cell.

    ``address`` is the quaternary digit path from the root (empty tuple);
    the split of this cell happens at level ``len(address) + 1``.
    """

    address: tuple[int, ...]
    counts: tuple[int, int, int, int]

    @property
    def level(self) -> int:
        return len(self.address) + 1

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class CountTree:
    """All retained cells in depth-first address order."""

    cells: tuple[CellCounts, ...]
    depth_cap: int
    truncated: bool
    n_points: int


def quadrant_digit(u: float, v: float, rect: Rect = UNIT_SQUARE) -> int:
    """Quadrant index of a point inside ``rect``.

    Half-open midpoint rule: a coordinate below the midpoint goes to the
    low side, at or above it to the high side.
    """
    xm = 0.5 * (rect.x_lo + rect.x_hi)
    ym = 0.5 * (rect.y_lo + rect.y_hi)
    return (1 if u >= xm else 0) | ((1 if v >= ym else 0) << 1)


def _child_rect(rect: Rect, digit: int) -> Rect:
    xm = 0.5 * (rect.x_lo + rect.x_hi)
    ym = 0.5 * (rect.y_lo + rect.y_hi)
    if digit & 1:
        x_lo, x_hi = xm, rect.x_hi
    else:
        x_lo, x_hi = rect.x_lo, xm
    if digit & 2:
        y_lo, y_hi = ym, rect.y_hi
    else:
        y_lo, y_hi = rect.y_lo, ym
    return Rect(x_lo, y_lo, x_hi, y_hi)


def build_count_tree(u, v, depth_cap: int) -> CountTree:
    """Recursively count quadrant occupancies for every cell with >= 2 points.

    ``u`` and ``v`` are the coordinates of the points in the unit square.

    ``truncated`` is set when some depth-cap cell still holds two or more
    points (coincident points always do this, since they never separate).
    """
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    cells: list[CellCounts] = []
    truncated = False

    def visit(idx: np.ndarray, rect: Rect, address: tuple[int, ...]) -> None:
        nonlocal truncated
        if idx.size < 2:
            return
        if len(address) >= depth_cap:
            truncated = True
            return
        xm = 0.5 * (rect.x_lo + rect.x_hi)
        ym = 0.5 * (rect.y_lo + rect.y_hi)
        digits = (u[idx] >= xm).astype(np.int64) | ((v[idx] >= ym).astype(np.int64) << 1)
        counts = tuple(int(np.count_nonzero(digits == d)) for d in range(4))
        cells.append(CellCounts(address=address, counts=counts))
        for d in range(4):
            visit(idx[digits == d], _child_rect(rect, d), address + (d,))

    visit(np.arange(u.size), UNIT_SQUARE, ())
    return CountTree(
        cells=tuple(cells),
        depth_cap=depth_cap,
        truncated=truncated,
        n_points=int(u.size),
    )


def log_bayes_factor(tree: CountTree, c: float) -> tuple[float, np.ndarray]:
    """Total log Bayes factor and per-level sums for an explicit count tree.

    A cell split at level k has concentration ``c * k**2``. The total
    accumulates over cells in stored address order, independently of the
    per-level aggregation, so the level-sum identity is a real check rather
    than a tautology.
    """
    max_level = max((cell.level for cell in tree.cells), default=0)
    levels = np.zeros(max_level, dtype=np.float64)
    total = 0.0
    for cell in tree.cells:
        a = c * cell.level * cell.level
        term = log_cell_evidence(cell.counts, a)
        total += term
        levels[cell.level - 1] += term
    return total, levels
