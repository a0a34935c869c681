"""Quaternary count tree over the unit square.

Each cell splits into four equal quadrants addressed by digits 0..3
(0 bottom-left, 1 bottom-right, 2 top-left, 3 top-right). A cell is
retained when it holds at least two points; its record stores how those
points distribute over the four children. Recursion stops at single-point
cells or at the depth cap.

This is the reference construction. The sort-once kernel in
:mod:`ptdep.kernels` computes the same counts without materialising the
tree; equivalence between the two routes is covered by the test suite.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .transforms import UnitPoints

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


def build_count_tree(points: UnitPoints, depth_cap: int) -> CountTree:
    """Recursively count quadrant occupancies for every cell with >= 2 points.

    ``truncated`` is set when some depth-cap cell still holds two or more
    points (coincident points always do this, since they never separate).
    """
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    u = np.asarray(points.u, dtype=np.float64)
    v = np.asarray(points.v, dtype=np.float64)
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
