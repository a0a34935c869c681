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
route with fewer log-gamma evaluations, and both give the same floats. It
also scores cells of several levels in one call, each at its own level's
concentration.

A batch is B samples of n points, given as ``u`` and ``v`` that broadcast
to (B, n), so a margin shared by every sample is passed once. Samples never
interact: each row's result is bit for bit what the row gives alone. A
batch is scored in calls of at most ``CHUNK_POINTS`` points, never
splitting a row, which bounds the working set of large batches. Every
test, the single-sample basic test included, reaches the kernel through
:func:`ptdep.ebayes.best_candidates`.

Scoring one level costs some tens of microseconds of numpy calls whatever
its size, besides the work per point. That fixed cost is small beside the
top levels, where many points survive, and dominates the deep ones, where
few do. So once at most ``TAIL_POINTS`` points of a block survive,
:func:`_score_tail` scores all its remaining levels in one pass: each
point's separation level, read once from its xor, says at which levels
it is scored and where it opens a cell or a parent, and the (level,
point) pairs are laid out level-major so that every level sum, depth and
truncation flag is bit for bit the per-level loop's. A test of up to
``TAIL_POINTS`` points is scored in the pass alone. On a 2-core x86 host
(Python 3.11, numpy 2.4), timed on a 200-permutation null at n = 150 with
its test, the switch at 2**12 points was fastest and about 9% faster than
the per-level loop alone; 2**11 and 2**13 were each about 4% slower than
2**12, and 2**14 about 30% slower, since the pass holds one entry per
(level, point) pair.

``CHUNK_POINTS`` = 2**15 is the smallest power of two that scores the
many-small-tests batches in one call: the default ebayes table at n = 4000
(5 rows, 20 000 points) and a 200-permutation null at n = 150 (30 000
points). A call split in two pays the fixed cost of the top levels, and
of the pass, twice: on the same null, 2**14 measured within noise of
2**15 and 2**13 about 20% slower. 2**16 gained at most a few percent
more for twice the working set.

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

# Surviving points of a block at or below which its remaining levels are
# scored in one pass by :func:`_score_tail`.
TAIL_POINTS = 2**12


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


def cell_log_evidence(n0, n1, n2, n3, a, level=None):
    """Log evidence of independence over dependence for cells split into quadrants.

    ``n0``..``n3`` are the quadrant counts (integers or integer arrays of one
    shape) and ``a`` the per-quadrant concentration. With ``level`` given,
    ``a`` holds one concentration per level and cell i has ``a[level[i]]``.
    This is the one copy of the closed-form cell term: two Beta-Binomial
    margins over one Dirichlet-multinomial, all in log-gamma space.

    The terms need log-gamma at 9 counts per cell, each offset by ``a``,
    ``2a`` or ``4a``. When that is fewer evaluations than three tables over
    ``0..max(total)`` for each concentration, each argument is evaluated
    directly; otherwise the values are looked up in the tables. Counts are
    integers, so both routes form the same float ``float(k) + s * a`` for
    every argument and give the same terms bit for bit, whatever cells share
    a call. Terms are formed one at a time, so only a few arrays of one
    value per cell are alive at once.
    """
    total = n0 + n1 + n2 + n3
    top = int(np.max(total))
    if 9 * np.size(total) < 3 * np.size(a) * (top + 1):
        cell_a = a if level is None else a[level]

        def lg(k, s):
            return gammaln(k + s * cell_a)
    elif level is None:
        # One level needs no offsets into its tables: adding them measured a
        # quarter to a third slower on the dense levels' thousands of cells.
        m = np.arange(top + 1, dtype=np.float64)
        tables = {s: gammaln(m + s * a) for s in (1, 2, 4)}

        def lg(k, s):
            return tables[s][k]
    else:
        # One flat table per offset s: level l's values start at l * (top + 1).
        m = np.arange(top + 1, dtype=np.float64)
        tables = {s: gammaln(m + s * a[:, None]).ravel() for s in (1, 2, 4)}
        base = level * (top + 1)

        def lg(k, s):
            return tables[s][base + k]
    const = (gammaln(4.0 * a), 4.0 * gammaln(a), 4.0 * gammaln(2.0 * a))
    if level is not None:
        const = tuple(g[level] for g in const)
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
        + const[0]
        + const[1]
        - const[2]
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


def _score_tail(k0: int, depth_cap: int, c: float, a, x, parent_row, levels, depth,
                truncated) -> None:
    """Score levels ``k0``..D of a block's surviving points in one pass.

    A point opens a level-k cell when its separation level s, read once
    from its xor, is at most k: 0 for a row's first point, D + 1 for a point
    that coincides with the one before it. Dropping lone points never
    changes whether a point's successor opens a cell, so every point is
    scored at each level from ``k0`` down to the larger of its own and its
    successor's s. The (level, point) pairs are laid out level-major, so
    each level's runs, parents and row segments follow one another exactly
    as :func:`_add_level` forms them, and the same sums result.
    """
    powers = 4 ** np.arange(depth_cap + 1, dtype=np.int64)
    s = depth_cap + 1 - np.searchsorted(powers, x, side="right")
    # Each point's row, through the level-k0 parent it falls in.
    row = parent_row[np.cumsum(s < k0) - 1]
    last = np.maximum(s, np.append(s[1:], 0))
    ks = np.arange(k0, min(int(last.max()), depth_cap) + 1)
    # Level-major (level, point) pairs: each level's points in order.
    pair = np.flatnonzero(last >= ks[:, None])
    k = pair // a.size
    pt = pair - k * a.size
    k += k0
    runs = np.flatnonzero(s[pt] <= k)
    size = np.diff(runs, append=pt.size)
    k, pt = k[runs], pt[runs]
    opens_parent = s[pt] < k
    run_parent = np.cumsum(opens_parent) - 1
    parents = run_parent[-1] + 1
    counts = np.zeros((4, parents), dtype=np.int64)
    counts.ravel()[((a[pt] >> 2 * (depth_cap - k)) & 3) * parents + run_parent] = size
    first_run = np.flatnonzero(opens_parent)
    parent_k, parent_row = k[first_run], row[pt[first_run]]
    terms = cell_log_evidence(*counts, c * ks * ks, parent_k - k0)
    # A row's level sum runs over a segment of parents of one level and row.
    new_seg = np.empty(parents, dtype=bool)
    new_seg[0] = True
    np.logical_or(parent_k[1:] != parent_k[:-1], parent_row[1:] != parent_row[:-1],
                  out=new_seg[1:])
    first = np.flatnonzero(new_seg)
    seg_row, seg_k = parent_row[first], parent_k[first]
    levels[seg_row, seg_k - 1] = np.add.reduceat(terms, first)
    np.maximum.at(depth, seg_row, seg_k)
    # Points share a level-D cell only when their addresses coincide.
    truncated[row[x == 0]] = True


def _score_block(addr: np.ndarray, depth_cap: int, c: float, levels, depth, truncated) -> None:
    """Fill the level sums, depths and truncation flags of a block of sorted rows.

    ``a`` holds the sorted addresses and ``x`` each one's xor with the one
    before it. A point opens a level-k cell when ``x >= 1 << 2(D - k)``, a
    parent cell when ``x >= 1 << 2(D - k + 1)``, and is lone when it and the
    point after it both open a cell. Each level's bookkeeping lives in
    :func:`_add_level`, so it is freed before the lone points are dropped.
    Once at most ``TAIL_POINTS`` points survive, :func:`_score_tail` scores
    the remaining levels.
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
        if a.size <= TAIL_POINTS:
            _score_tail(k, depth_cap, c, a, x, parent_row, levels, depth, truncated)
            return
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
