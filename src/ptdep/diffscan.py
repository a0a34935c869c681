"""Pairwise dependence scans and differential-dependence screening.

A scan evaluates the dependence test for every unordered column pair of a
numeric matrix. Two scans under different conditions combine into the
probability that a pair's dependence status changed:

    p_diff = pA * (1 - pB) + pB * (1 - pA)

which is largest when one condition shows dependence and the other does
not. Output order is fixed: lexicographic by column indices. Both scans
are streams, scored as they are read; the public functions return them
as lists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .ebayes import (Segment, ShiftSearchConfig, best_candidates, cut_rows, margin_codes,
                     shift_search, winner_result)
from .engine import PartitionConfig, TestResult, _check_real
from .errors import DegenerateSample, VarMismatch


@dataclass(frozen=True)
class ExpressionMatrix:
    """Samples-by-variables numeric matrix with named columns."""

    values: np.ndarray
    var_names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if values.shape[0] < 1:
            raise ValueError("matrix must contain at least one sample row")
        names = tuple(str(n) for n in self.var_names)
        if values.shape[1] != len(names):
            raise ValueError(f"{len(names)} names for {values.shape[1]} columns")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix contains non-finite entries")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "var_names", names)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.var_names.index(name)]


@dataclass(frozen=True)
class PairResult:
    """One scanned pair: a test result, or a skip reason."""

    var_a: str
    var_b: str
    result: TestResult | None
    error: str | None = None


@dataclass(frozen=True)
class DiffEdge:
    """A pair whose dependence status changed between conditions A and B."""

    var_a: str
    var_b: str
    p_dep_a: float
    p_dep_b: float
    p_diff: float
    edge_class: str  # lost_in_B | gained_in_B | indeterminate


def p_diff(p_a: float, p_b: float) -> float:
    """Probability that dependence holds in exactly one of two conditions."""
    _check_real("p_a", p_a, 0.0, 1.0, "[]")
    _check_real("p_b", p_b, 0.0, 1.0, "[]")
    return p_a * (1.0 - p_b) + p_b * (1.0 - p_a)


def _column_codes(m: ExpressionMatrix, depth_cap: int):
    """Each column, contiguous, with its :func:`~ptdep.ebayes.margin_codes` or its
    degenerate error."""
    cols, codes, errors = [], [], []
    for j in range(m.n_vars):
        cols.append(np.ascontiguousarray(m.values[:, j]))
        try:
            codes.append(margin_codes(cols[j], depth_cap))
            errors.append(None)
        except DegenerateSample as exc:
            codes.append(None)
            errors.append(str(exc))
    return cols, codes, errors


def _search(cols: list, codes: list, axis: str,
            search: ShiftSearchConfig | None, cfg: PartitionConfig):
    """Yield ``((i, j), winner)`` of each pair with a table on ``axis``, as it is scored.

    Column c's pairs are one run of tables: each of its :func:`cut_rows` on
    ``axis``, built as kernel calls take them, against the stacked codes of its
    partners; on x, the unwrapped row comes first. Its partners, listed as
    it is scored, are the coded columns after it on x and before it on y; a
    degenerate column, whose ``codes[c]`` is None, has none. A column
    with no partners, or on y with no cut rows, holds no table. So x yields
    its pairs in lexicographic order, and y by their second column. The keys
    held are those of the tables read but not yet yielded.
    """
    keys, tables = deque(), 0

    def block(c: int):
        nonlocal tables
        partners = [p for p in (range(c + 1, len(cols)) if axis == "x" else range(c))
                    if codes[p] is not None]
        if codes[c] is None or not partners:
            return
        rows = cut_rows(cols[c], search, axis, cfg.depth_cap)
        head = (None, codes[c]) if axis == "x" else next(rows, None)
        if head is None:  # no usable cut: no table
            return
        first, fixed = tables, np.stack([codes[p] for p in partners])
        tables += len(partners)
        keys.extend((c, p) if axis == "x" else (p, c) for p in partners)
        for delta, row in chain([head], rows):
            yield Segment(first, axis, delta, row, fixed)

    for winner in best_candidates(map(block, range(len(cols))), cfg):
        yield keys.popleft(), winner


def _pair_stream(m: ExpressionMatrix, cfg: PartitionConfig | None, method: str,
                 scfg: ShiftSearchConfig | None):
    """The :func:`pairwise_scan` of ``m``, checked now and scored as it is read."""
    if m.n_vars < 2:
        raise ValueError("need at least two variables to scan")
    search = shift_search(method, scfg)
    return _scored_pairs(m, cfg or PartitionConfig(), method, search)


def _scored_pairs(m: ExpressionMatrix, cfg: PartitionConfig, method: str,
                  search: ShiftSearchConfig | None):
    """Yield each pair's :class:`PairResult` in output order, as its x table is scored.

    Under "xy" the y pass runs first and its winners are held until their
    pairs come up: a pair is final only once both passes scored it, and y
    reaches pair (i, j) only at column j. Otherwise the y pass scores nothing
    and the scan holds its columns and one kernel call's rows, not its pairs.
    """
    cols, codes, errors = _column_codes(m, cfg.depth_cap)
    held = dict(_search(cols, codes, "y", search, cfg))
    scored = _search(cols, codes, "x", search, cfg)
    for i in range(m.n_vars):
        for j in range(i + 1, m.n_vars):
            result, error = None, errors[i] or errors[j]
            if error is None:
                _, winner = next(scored)
                y = held.pop((i, j), None)
                if y is not None and y[0] < winner[0]:  # x's row on ties
                    winner = y
                result = winner_result(winner, m.n_samples, cfg, method)
            yield PairResult(var_a=m.var_names[i], var_b=m.var_names[j], result=result,
                             error=error)


def pairwise_scan(
    m: ExpressionMatrix,
    cfg: PartitionConfig | None = None,
    method: str = "basic",
    scfg: ShiftSearchConfig | None = None,
) -> list[PairResult]:
    """Dependence test for every unordered column pair.

    Degenerate columns skip their pairs with a recorded reason instead of
    failing the scan. Output order is lexicographic by column indices.

    Each column is mapped and coded once. Axis x is searched over each
    pair's first column against every later one, and axis y over the second
    column against every earlier one, where a y-row wins only when strictly
    better. The y pass finds no cut rows unless the search is ebayes with
    "xy", as :func:`cut_rows` decides. A pair's result is bit for bit its
    ``run_test``.
    """
    return list(_pair_stream(m, cfg, method, scfg))


def classify_edge(p_a: float, p_b: float) -> str:
    """Label a changed pair by which condition carries the dependence."""
    _check_real("p_a", p_a, 0.0, 1.0, "[]")
    _check_real("p_b", p_b, 0.0, 1.0, "[]")
    if p_a > 0.5 > p_b:
        return "lost_in_B"
    if p_b > 0.5 > p_a:
        return "gained_in_B"
    return "indeterminate"


def diff_scan(
    m_a: ExpressionMatrix,
    m_b: ExpressionMatrix,
    cfg: PartitionConfig | None = None,
    threshold: float = 0.95,
    method: str = "basic",
    scfg: ShiftSearchConfig | None = None,
) -> list[DiffEdge]:
    """Pairs whose dependence status changed between two conditions.

    Both matrices must cover the same variable names (sample counts may
    differ); condition B's columns are aligned to A's order. Pairs that are
    degenerate in either condition are skipped. Only edges with
    ``p_diff >= threshold`` are returned; ``threshold`` must lie in [0, 1].
    """
    return list(_edge_stream(m_a, m_b, cfg, threshold, method, scfg))


def _edge_stream(m_a: ExpressionMatrix, m_b: ExpressionMatrix, cfg: PartitionConfig | None,
                 threshold: float, method: str, scfg: ShiftSearchConfig | None):
    """The :func:`diff_scan` of ``m_a`` and ``m_b``, checked now and scored as it is read:
    the two conditions' pair streams, zipped."""
    _check_real("threshold", threshold, 0.0, 1.0, "[]")
    if set(m_a.var_names) != set(m_b.var_names):
        raise VarMismatch("the two matrices must carry the same variable names")
    if tuple(m_a.var_names) != tuple(m_b.var_names):
        order = [m_b.var_names.index(n) for n in m_a.var_names]
        m_b = ExpressionMatrix(values=m_b.values[:, order], var_names=m_a.var_names)
    pairs = zip(_pair_stream(m_a, cfg, method, scfg), _pair_stream(m_b, cfg, method, scfg))
    return _edges(pairs, threshold)


def _edges(pairs, threshold: float):
    """Yield the edge of each pair of ``pairs``, scored in A and in B, whose ``p_diff``
    reaches ``threshold``."""
    for pa, pb in pairs:
        if pa.result is None or pb.result is None:
            continue
        prob_a = pa.result.p_dependent
        prob_b = pb.result.p_dependent
        prob_diff = p_diff(prob_a, prob_b)
        if prob_diff >= threshold:
            yield DiffEdge(var_a=pa.var_a, var_b=pa.var_b, p_dep_a=prob_a, p_dep_b=prob_b,
                           p_diff=prob_diff, edge_class=classify_edge(prob_a, prob_b))
