"""Sort-once quadrant-count kernel, batched over samples of equal size.

Every point gets one Morton (Z-order) address (G. M. Morton, IBM, 1966):
the binary digits of ``floor(u * 2**D)`` and ``floor(v * 2**D)``
interleaved, level 1 in the top two bits, for depth cap D. Scaling by a
power of two is exact, so the top 2k bits of an address name the point's
level-k cell. Each sample's addresses are sorted once, and the kernel keeps
the sorted addresses and the xor of each with the one before it. A point
opens a level-k cell when that xor has a bit among the top 2k, and a parent
cell when it has one among the top 2(k - 1); cells are runs, and each run's
length is one quadrant count of its parent. A point is lone when it and the
point after it both open a cell: it never shares a cell again and is dropped.

Each level's cell terms need log-gamma at nine counts per parent cell. At
the top levels a few cells hold many points, so those counts are evaluated
directly; lower down many cells hold few points, so three small tables
over ``0..max(total)`` are cheaper. :func:`cell_log_evidence` picks the
route with fewer log-gamma evaluations, and both give the same floats.

A batch is B samples of n points, given as ``u`` and ``v`` that broadcast
to (B, n), so a margin shared by every sample is passed once. Samples never
interact: each row's result is bit for bit what the row gives alone. A
batch is scored in calls of at most ``CHUNK_POINTS`` points, never
splitting a row, which bounds the working set of large batches. Every
test, the single-sample basic test included, reaches the kernel through
:func:`ptdep.ebayes.best_candidates`.

A call pays a fixed cost of some tens of microseconds per level, whatever
its size, for the numpy calls that level makes. ``CHUNK_POINTS`` = 2**15 is
the smallest power of two that scores the many-small-tests batches in one
call: the default ebayes table at n = 4000 (5 rows, 20 000 points) and a
200-permutation null at n = 150 (30 000 points). Smaller calls split them
and pay the per-level cost again; 2**16 gained at most a few percent more
for twice the working set.

Level convention: the split of the root counts as level 1, so a cell whose
address has m digits splits at level m + 1 with concentration ``c * (m+1)**2``.
"""

from __future__ import annotations

import numpy as np
from ._ufuncs import gammaln

# 2 bits per level in an int64 address, keep one bit of headroom.
MAX_DEPTH_CAP = 30

# Points scored per kernel call; a row longer than this is scored alone.
CHUNK_POINTS = 2**15


def rows_per_call(n: int) -> int:
    """Rows of n points that fit one kernel call (at least one)."""
    return max(1, CHUNK_POINTS // max(n, 1))


def _spread(cells: np.ndarray) -> np.ndarray:
    """Move bit i of each (at most 30-bit) cell index to bit 2i, in place."""
    for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                        (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                        (1, 0x5555555555555555)):
        cells |= cells << shift
        cells &= mask
    return cells


def _addresses(u: np.ndarray, v: np.ndarray, depth_cap: int) -> np.ndarray:
    """Row-sorted Morton addresses of the points (u, v), shape (B, n)."""
    scale = float(2**depth_cap)
    ax = _spread((u * scale).astype(np.int64))
    ay = _spread((v * scale).astype(np.int64))
    return np.sort(ax | (ay << 1), axis=-1)


def cell_log_evidence(n0, n1, n2, n3, a: float):
    """Log evidence of independence over dependence for cells split into quadrants.

    ``n0``..``n3`` are the quadrant counts (integers or integer arrays of one
    shape) and ``a`` the per-quadrant concentration. This is the one copy of
    the closed-form cell term: two Beta-Binomial margins over one
    Dirichlet-multinomial, all in log-gamma space.

    The terms need log-gamma at 9 counts per cell, each offset by ``a``,
    ``2a`` or ``4a``. When that is fewer evaluations than three tables over
    ``0..max(total)``, each argument is evaluated directly; otherwise the
    values are looked up in the tables. Counts are integers, so both routes
    form the same float ``float(k) + s * a`` for every argument and give the
    same terms bit for bit. Terms are formed one at a time, so only a few
    arrays of one value per cell are alive at once.
    """
    total = n0 + n1 + n2 + n3
    top = int(np.max(total))
    if 9 * np.size(total) < 3 * (top + 1):
        def lg(k, s):
            return gammaln(k + s * a)
    else:
        m = np.arange(top + 1, dtype=np.float64)
        tables = {s: gammaln(m + s * a) for s in (1, 2, 4)}

        def lg(k, s):
            return tables[s][k]
    return (
        lg(n0 + n2, 2)
        + lg(n1 + n3, 2)
        + lg(n0 + n1, 2)
        + lg(n2 + n3, 2)
        - lg(total, 4)
        - lg(n0, 1)
        - lg(n1, 1)
        - lg(n2, 1)
        - lg(n3, 1)
        + gammaln(4.0 * a)
        + 4.0 * gammaln(a)
        - 4.0 * gammaln(2.0 * a)
    )


def _add_level(k: int, shift: int, conc: float, a, x, opens, parent_row, level, depth):
    """Add the level-k cell terms of every parent to ``level``; return the next parents.

    Returns the row of each level-k cell holding two or more points, and
    whether every level-k cell does.
    """
    runs = np.flatnonzero(opens)
    size = np.empty_like(runs)
    np.subtract(runs[1:], runs[:-1], out=size[:-1])
    size[-1] = a.size - runs[-1]
    # A run opens a parent cell when it opens a level-(k - 1) cell.
    run_parent = np.cumsum(x[runs] >= 1 << (shift + 2)) - 1
    # Row q of counts holds quadrant q of every parent.
    counts = np.zeros((4, parent_row.size), dtype=np.int64)
    counts.ravel()[((a[runs] >> shift) & 3) * parent_row.size + run_parent] = size
    terms = cell_log_evidence(*counts, conc)
    # Every parent holds two or more points (lone points were dropped),
    # so each is a retained cell; a row's level sum runs over a segment.
    new_row = np.empty(parent_row.size, dtype=bool)
    new_row[0] = True
    np.not_equal(parent_row[1:], parent_row[:-1], out=new_row[1:])
    first = np.flatnonzero(new_row)
    here = parent_row[first]
    level[here] = np.add.reduceat(terms, first)
    depth[here] = k
    shared = np.flatnonzero(size >= 2)
    return parent_row[run_parent[shared]], shared.size == runs.size


def _score_block(addr: np.ndarray, depth_cap: int, c: float, levels, depth, truncated) -> None:
    """Fill the level sums, depths and truncation flags of a block of sorted rows.

    ``a`` holds the sorted addresses and ``x`` each one's xor with the one
    before it. A point opens a level-k cell when ``x >= 1 << 2(D - k)``, a
    parent cell when ``x >= 1 << 2(D - k + 1)``, and is lone when it and the
    point after it both open a cell. Each level's bookkeeping lives in
    :func:`_add_level`, so it is freed before the lone points are dropped.
    """
    rows, n = addr.shape
    a = addr.ravel()
    # A row's first point opens every cell: its xor, the int64 maximum,
    # passes even 1 << 2D, which no other xor of 2D-bit addresses reaches.
    # A point whose predecessor was dropped as lone keeps its xor with that
    # predecessor: it opened a cell at that level, so at every deeper one.
    x = np.empty_like(a)
    np.bitwise_xor(a[1:], a[:-1], out=x[1:])
    x[::n] = np.iinfo(np.int64).max
    # The row of each parent; at level 1 the parent is the whole row.
    parent_row = np.arange(rows)
    for k in range(1, depth_cap + 1):
        shift = 2 * (depth_cap - k)
        opens = x >= 1 << shift
        parent_row, every = _add_level(k, shift, c * k * k, a, x, opens, parent_row,
                                       levels[:, k - 1], depth)
        if k == depth_cap:
            truncated[parent_row] = True
            break
        if not parent_row.size:
            break
        if every:
            # No lone point: the next level keeps every point, so skip the copies.
            continue
        # Taking by index is cheaper than by a boolean mask with no regular
        # pattern; each array is replaced in turn, and the index freed, to
        # keep the working set small.
        lone = opens.copy()
        lone[:-1] &= opens[1:]
        kept = np.flatnonzero(~lone)
        x = x[kept]
        a = a[kept]
        del kept


def logbf_batch(u, v, depth_cap: int, c: float):
    """Per-level log evidence of every sample in a batch.

    ``u`` and ``v`` hold unit-square coordinates and broadcast to (B, n).
    Returns ``(levels, depth, truncated)``: ``levels[b, k-1]`` sums the log
    evidence of every cell of sample b split at level k and is zero beyond
    ``depth[b]``, the deepest level with a retained cell; ``truncated[b]``
    tells whether points of sample b still shared a cell at the depth cap.
    """
    if depth_cap < 1 or depth_cap > MAX_DEPTH_CAP:
        raise ValueError(f"depth_cap must be in [1, {MAX_DEPTH_CAP}]")
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    batch, n = np.broadcast_shapes(u.shape, v.shape)
    levels = np.zeros((batch, depth_cap), dtype=np.float64)
    depth = np.zeros(batch, dtype=np.int64)
    truncated = np.zeros(batch, dtype=bool)
    if n <= 1:
        return levels, depth, truncated
    step = rows_per_call(n)
    for lo in range(0, batch, step):
        rows = slice(lo, min(lo + step, batch))
        addr = _addresses(u[rows] if u.shape[0] > 1 else u,
                          v[rows] if v.shape[0] > 1 else v, depth_cap)
        _score_block(addr, depth_cap, float(c), levels[rows], depth[rows], truncated[rows])
    return levels, depth, truncated
