"""Sort-once quadrant-count kernel, batched over samples of equal size.

Every point gets one Morton (Z-order) address (G. M. Morton, IBM, 1966):
the binary digits of ``floor(u * 2**D)`` and ``floor(v * 2**D)``
interleaved, level 1 in the top two bits, for depth cap D. Scaling by a
power of two is exact, so the top 2k bits of an address name the point's
level-k cell. Each sample's addresses are sorted once, and each point's
separation level s is read once per block from the xor of its address with
the one before it (:func:`_separation`): the first level at which the two
points fall in different cells, 0 for a row's first point and D + 1 for a
repeated address. A point opens a level-k cell when s <= k, and a parent
cell when s < k; cells are runs, and each run's length is one quadrant
count of its parent. A point whose ``last``, the larger of its own and its
successor's s, is at most k is alone in its level-k cell: it never shares
a cell again and is dropped. A row's depth, its largest s capped at D, and
whether it is truncated, whether some s is D + 1, are written once per
block, before any level is scored.

Counting and scoring are each written once. :func:`_count` is the one
counting step: it turns the points of one level, or of several laid out
level-major, into each parent cell's four quadrant counts. :func:`_add_sums`
is the one scorer: it scores those counts through :func:`cell_log_evidence`
and sums the terms of each row's parents at one level into that row's level
sum. Its callers differ only in how they key the sums: a level scored on
its own keys them by parent row into that level's column, so the cell term
reads its tables without offsets, and the pass over several levels keys
them by ``row * D + level - 1`` into the flat level table.

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
few do. So the top levels are counted and scored one at a time
(:func:`_score_level`), and once at most ``TAIL_POINTS`` points of a block
survive, :func:`_score_tail` counts and scores all its remaining levels in
one pass: each point's s and ``last`` say at which levels it is scored,
and the (level, point) pairs are laid out level-major, so that every level
sum is bit for bit the per-level loop's. A test of up to ``TAIL_POINTS``
points is scored in the pass alone. On a 2-core x86 host (Python 3.11,
numpy 2.4), timed on a 200-permutation null at n = 150 with its test, the
switch at 2**12 points was fastest and about 9% faster than the per-level
loop alone; 2**11 and 2**13 were each about 4% slower than 2**12, and 2**14
about 30% slower, since the pass holds one entry per (level, point) pair.

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
# counted in one call of the counting step and scored in one call of the
# scorer, by :func:`_score_tail`; above it each level takes one call of each.
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


def _separation(a: np.ndarray, n: int, depth_cap: int):
    """Each point's separation level ``s`` and ``last``, the larger of its own and its successor's.

    ``a`` holds sorted rows of n addresses end to end. A point's s is the
    first level at which its cell differs from its predecessor's: 0 for a
    row's first point, D + 1 for an address equal to its predecessor's, and
    otherwise D - floor(log4(x)) for the xor x of the two addresses. This is
    the one place an xor is read: its float exponent gives floor(log2(x)),
    exact once an xor of 2**53 or more (depth cap 27 and up) has its low
    bits cleared, so that rounding cannot carry it to the next power of two.
    A block's last point has no successor and keeps ``last = s``.
    """
    x = np.bitwise_xor(a[1:], a[:-1])
    if depth_cap > 26:
        np.bitwise_and(x, ~127, out=x, where=x >= 2**53)
    # bits >> 52 is the biased exponent e = floor(log2(x)) + 1023, so
    # (bits + 2**52) >> 53 is (e + 1) // 2, and D + 512 less that is
    # D - floor(log4(x)).
    bits = x.astype(np.float64).view(np.int64)
    bits += 1 << 52
    bits >>= 53
    np.subtract(depth_cap + 512, bits, out=bits)
    s = np.empty(a.size, dtype=np.int8)
    # A zero xor reads as D + 512 and is capped at D + 1.
    np.minimum(bits, depth_cap + 1, out=s[1:], casting="unsafe")
    s[::n] = 0
    last = np.empty_like(s)
    np.maximum(s[:-1], s[1:], out=last[:-1])
    last[-1] = s[-1]
    return s, last


def _count(a, s, k, depth_cap: int):
    """Quadrant counts of the level-k parent cells of points laid out level-major.

    ``a`` and ``s`` hold the addresses and separation levels of the points
    of one or more levels, each level's points in order, and ``k`` is one
    level for all points or one level per point. A point opens a level-k
    cell when ``s <= k`` and a parent cell when ``s < k``, so cells are runs
    and each run's length is one quadrant count of its parent. Returns the
    counts, row q holding quadrant q of every parent, and the first point,
    length and parent of each run.
    """
    runs = np.flatnonzero(s <= k)
    size = np.empty_like(runs)
    np.subtract(runs[1:], runs[:-1], out=size[:-1])
    size[-1] = a.size - runs[-1]
    if isinstance(k, np.ndarray):
        k = k[runs]
    run_parent = np.cumsum(s[runs] < k) - 1
    parents = int(run_parent[-1]) + 1
    counts = np.zeros((4, parents), dtype=np.int64)
    counts.ravel()[((a[runs] >> 2 * (depth_cap - k)) & 3) * parents + run_parent] = size
    return counts, runs, size, run_parent


def _add_sums(out, key, counts, a, level=None) -> None:
    """Set ``out[key]`` to the sum of the cell terms over each run of equal ``key``.

    ``counts`` holds the quadrant counts of one parent cell per column, and
    ``a`` and ``level`` are passed on to :func:`cell_log_evidence`. Every
    parent holds two or more points (lone points were dropped), so each is a
    retained cell, and the parents of one level of one row are consecutive.
    """
    terms = cell_log_evidence(*counts, a, level)
    new = np.empty(key.size, dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    first = np.flatnonzero(new)
    out[key[first]] = np.add.reduceat(terms, first)


def _score_level(k: int, depth_cap: int, c: float, a, s, parent_row, levels):
    """Score level k of a block's surviving points; return the next parents.

    The sums are keyed by parent row into level k's column, so the cell term
    reads its tables without offsets. Returns the row of each level-k cell
    holding two or more points, and whether every level-k cell does.
    """
    counts, runs, size, run_parent = _count(a, s, k, depth_cap)
    _add_sums(levels[:, k - 1], parent_row, counts, c * k * k)
    shared = np.flatnonzero(size >= 2)
    return parent_row[run_parent[shared]], shared.size == runs.size


def _score_tail(k0: int, depth_cap: int, c: float, a, s, last, parent_row, levels) -> None:
    """Score levels ``k0``..D of a block's surviving points in one pass.

    A point is scored at every level k from ``k0`` while ``last >= k``.
    Dropping lone points never changes whether a point's successor opens a
    cell, so ``last`` holds for the surviving points as it did for the whole
    block. The (level, point) pairs are laid out level-major, so each
    level's runs, parents and row segments follow one another exactly as
    :func:`_score_level` forms them, and the same sums result. The sums are
    keyed by ``row * D + level - 1`` into the flat level table.
    """
    # Each point's row, through the level-k0 parent it falls in.
    row = parent_row[np.cumsum(s < k0) - 1]
    ks = np.arange(k0, min(int(last.max()), depth_cap) + 1)
    # Level-major (level, point) pairs: each level's points in order.
    pair = np.flatnonzero(last >= ks[:, None])
    k = pair // a.size
    pt = pair - k * a.size
    k += k0
    counts, runs, _, run_parent = _count(a[pt], s[pt], k, depth_cap)
    # Every run of a parent has its row and level, so any one may write its key.
    key = np.empty(counts.shape[1], dtype=np.int64)
    key[run_parent] = row[pt[runs]] * depth_cap + k[runs] - 1
    _add_sums(levels.ravel(), key, counts, c * ks * ks, key % depth_cap + 1 - k0)


def _score_block(addr: np.ndarray, depth_cap: int, c: float, levels, depth, truncated) -> None:
    """Fill the level sums, depths and truncation flags of a block of sorted rows.

    A row's depth is its largest separation level, capped at D, and it is
    truncated when two of its addresses coincide (separation level D + 1);
    both are written here, once. Each level is scored by
    :func:`_score_level`, whose arrays are freed before the points that are
    alone in their level-k cell (``last <= k``) are dropped. Once at most
    ``TAIL_POINTS`` points survive, :func:`_score_tail` scores the
    remaining levels.
    """
    rows, n = addr.shape
    a = addr.ravel()
    s, last = _separation(a, n, depth_cap)
    deepest = s.reshape(rows, n).max(axis=1)
    np.minimum(deepest, depth_cap, out=depth)
    np.greater(deepest, depth_cap, out=truncated)
    # The row of each parent; at level 1 the parent is the whole row.
    parent_row = np.arange(rows)
    for k in range(1, int(depth.max()) + 1):
        if a.size <= TAIL_POINTS:
            _score_tail(k, depth_cap, c, a, s, last, parent_row, levels)
            return
        parent_row, every = _score_level(k, depth_cap, c, a, s, parent_row, levels)
        if every:
            # No lone point: the next level keeps every point, so skip the copies.
            continue
        # Taking by index is cheaper than by a boolean mask with no regular
        # pattern; the index is freed to keep the working set small.
        kept = np.flatnonzero(last > k)
        a, s, last = a[kept], s[kept], last[kept]
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
        raise ValueError(f"depth_cap must be in [1, {MAX_DEPTH_CAP}], got {depth_cap}")
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
