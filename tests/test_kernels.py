"""The sort-once kernel: against the explicit tree, and batch against single."""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptdep import kernels
from ptdep.engine import C_RANGE
from ptdep.kernels import CHUNK_POINTS, MAX_DEPTH_CAP, half_codes
from ptdep.transforms import CLAMP_EPS

from oracles import build_count_tree, log_bayes_factor


def logbf_batch(u, v, depth_cap, c):
    """The kernel on unit coordinates, each margin coded once as every route codes it."""
    return kernels.logbf_batch(half_codes(u, depth_cap), half_codes(v, depth_cap), depth_cap, c)


def _random_points(rng, n):
    return rng.uniform(1e-9, 1 - 1e-9, n), rng.uniform(1e-9, 1 - 1e-9, n)


def _single(u, v, depth_cap, c=5.0):
    """One sample through the batch kernel: full level row, depth, flag."""
    levels, depth, truncated = logbf_batch(u, v, depth_cap, c)
    assert levels.shape == (1, depth_cap)
    return levels[0], int(depth[0]), bool(truncated[0])


def _assert_matches_tree(u, v, depth_cap=20):
    levels, depth, truncated = _single(u, v, depth_cap)
    tree = build_count_tree(u, v, depth_cap)
    _, tree_levels = log_bayes_factor(tree, 5.0)
    assert depth == tree_levels.size
    assert truncated == tree.truncated
    np.testing.assert_allclose(levels[:depth], tree_levels, atol=2e-9)
    assert levels[depth:].sum() == 0.0
    return truncated


class TestKernelAgainstTree:
    def test_matches_tree_totals(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(2, 500))
            _assert_matches_tree(*_random_points(rng, n))

    def test_tiny_inputs(self):
        levels, depth, truncated = _single(np.array([0.3]), np.array([0.3]), 20)
        assert depth == 0 and not truncated
        levels, depth, truncated = _single(np.array([0.3, 0.3]), np.array([0.4, 0.4]), 5)
        assert depth == 5 and truncated

    def test_depth_cap_one(self):
        rng = np.random.default_rng(12)
        u, v = _random_points(rng, 50)
        levels, depth, truncated = _single(u, v, 1)
        assert depth == 1
        assert truncated  # 50 points cannot all separate at depth 1

    def test_clustered_points(self):
        # heavy ties stress the run detection
        rng = np.random.default_rng(14)
        base = rng.uniform(0.2, 0.8, 10)
        u = np.repeat(base, 20)
        v = np.repeat(base[::-1], 20)
        assert _assert_matches_tree(u, v)  # coincident points hit the cap

    def test_full_depth_cap(self):
        rng = np.random.default_rng(17)
        u, v = _random_points(rng, 300)
        v[:40] = u[:40]  # near-diagonal points separate late
        _assert_matches_tree(u, v, depth_cap=30)


class TestDispatch:
    def test_levels_trimmed(self):
        rng = np.random.default_rng(15)
        u, v = _random_points(rng, 100)
        levels, depth, truncated = _single(u, v, 20)
        assert 1 <= depth <= 20
        assert levels[depth - 1] != 0.0 and not levels[depth:].any()

    def test_depth_cap_validation(self):
        for depth_cap in (0, 31):
            with pytest.raises(ValueError):
                kernels.logbf_batch(np.array([1]), np.array([1]), depth_cap, 5.0)
            with pytest.raises(ValueError):
                half_codes(np.array([0.5]), depth_cap)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(16)
        u, v = _random_points(rng, 321)
        a, _, _ = _single(u, v, 20)
        b, _, _ = _single(u, v, 20)
        assert np.array_equal(a, b)


def _assert_rows_are_singles(u, v, depth_cap, c):
    levels, depth, truncated = logbf_batch(u, v, depth_cap, c)
    u2, v2 = np.broadcast_arrays(np.atleast_2d(u), np.atleast_2d(v))
    assert levels.shape == (u2.shape[0], depth_cap)
    for b in range(u2.shape[0]):
        one, one_depth, one_truncated = _single(u2[b], v2[b], depth_cap, c)
        assert depth[b] == one_depth
        assert levels[b].tobytes() == one.tobytes()
        assert not levels[b, depth[b]:].any()
        assert bool(truncated[b]) == one_truncated
    return depth, truncated


@st.composite
def _batches(draw):
    """Rows on grids of different coarseness, so they tie, stop and truncate apart."""
    n = draw(st.integers(2, 30))
    rows = draw(st.integers(1, 6))
    depth_cap = draw(st.sampled_from([1, 2, 4, 8, 20, 30]))
    c = draw(st.sampled_from([0.1, 1.0, 5.0]))

    def row():
        cells = draw(st.sampled_from([2, 8, 64, 4096, 2**40]))
        ks = np.array(draw(st.lists(st.integers(0, cells - 1), min_size=n, max_size=n)))
        return (ks + 0.5) / cells

    v = np.array([row() for _ in range(rows)])
    u = row() if draw(st.booleans()) else np.array([row() for _ in range(rows)])
    return u, v, depth_cap, c


class TestBatchEqualsSingle:
    @settings(max_examples=200, deadline=None)
    @given(_batches())
    def test_every_row_is_its_single_call(self, case):
        _assert_rows_are_singles(*case)

    def test_rows_stopping_and_truncating_apart(self):
        rng = np.random.default_rng(18)
        n = 40
        u = rng.uniform(0.01, 0.99, n)
        close = u + 1e-9  # (u[i], close[i]) and (u[j], close[j]) part late
        u[::10] = 0.5
        tied = rng.uniform(0.01, 0.99, n)
        tied[::10] = 0.25  # four coincident points: truncates
        v = np.stack([rng.uniform(0.01, 0.99, n), close, tied])
        depth, truncated = _assert_rows_are_singles(u, v, 20, 5.0)
        assert len(set(depth.tolist())) > 1
        assert truncated.tolist() == [False, False, True]

    @settings(max_examples=100, deadline=None)
    @given(_batches())
    def test_any_call_size_gives_the_same_bits(self, case):
        u, v, depth_cap, c = case
        n = np.shape(v)[-1]
        results = []
        for points in (1, n - 1, n, 3 * n + 1, CHUNK_POINTS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "CHUNK_POINTS", points)
                results.append([a.tobytes() for a in logbf_batch(u, v, depth_cap, c)])
        assert all(r == results[0] for r in results)

    def test_batch_longer_than_one_call(self):
        rng = np.random.default_rng(19)
        n = 97
        rows = 3 * (CHUNK_POINTS // n) + 5
        _assert_rows_are_singles(rng.uniform(0, 1, n), rng.uniform(0, 1, (rows, n)), 20, 5.0)

    def test_row_longer_than_one_call(self):
        rng = np.random.default_rng(20)
        n = CHUNK_POINTS + 3
        _assert_rows_are_singles(rng.uniform(0, 1, (2, n)), rng.uniform(0, 1, (2, n)), 20, 5.0)


def _tail_rows(rng, kind, rows, n):
    """(u, v) of ``rows`` rows of n points, drawn as ``kind`` says."""
    if kind == "ties":
        cells = int(rng.choice([2, 8, 64, 4096]))
        return (rng.integers(0, cells, (2, rows, n)) + 0.5) / cells
    pts = rng.uniform(CLAMP_EPS, 1 - CLAMP_EPS, (2, rows, n))
    if kind == "coincident":
        block = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
        pts[:, :, block] = rng.uniform(0, 1, (2, rows, 1))
    elif kind == "edge":
        pts[rng.random((2, rows, n)) < 0.3] = 1 - CLAMP_EPS
    return pts


@st.composite
def _tail_cases(draw, max_n=3000):
    """Batches of up to 8 rows with ties, coincident blocks and points at the clamp."""
    rows = draw(st.integers(1, 8))
    n = draw(st.integers(2, max_n))
    depth_cap = draw(st.sampled_from(range(1, MAX_DEPTH_CAP + 1)))
    c = draw(st.sampled_from([C_RANGE[0], 5.0, C_RANGE[1]]))
    kind = draw(st.sampled_from(["uniform", "ties", "coincident", "edge"]))
    u, v = _tail_rows(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), kind, rows, n)
    return (u[0] if draw(st.booleans()) else u), v, depth_cap, c


def _with_tail_points(points, u, v, depth_cap, c):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "TAIL_POINTS", points)
        return logbf_batch(u, v, depth_cap, c)


def _pinned_batches(count=320, seed=20150):
    """A fixed set of batches, each of every kind and at both ends of ``C_RANGE`` in turn.

    Rows 1-8, n 2-3000 (mostly small, so the set stays quick), depth cap 1-30. Every
    draw is an integer or a uniform, so the set is the same on every platform.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        rows = int(rng.integers(1, 9))
        n = int(rng.integers(2, int(rng.choice([16, 128, 1024, 3001]))))
        depth_cap = int(rng.integers(1, MAX_DEPTH_CAP + 1))
        kind = ("uniform", "ties", "coincident", "edge")[i // 2 % 4]
        u, v = _tail_rows(rng, kind, rows, n)
        yield (u[0] if rng.integers(2) else u), v, depth_cap, C_RANGE[i % 2]


def _pinned_digest(points):
    """SHA-256 of the dtype and bytes of every output over :func:`_pinned_batches`."""
    digest = hashlib.sha256()
    for case in _pinned_batches():
        for out in _with_tail_points(points, *case):
            digest.update(out.dtype.str.encode())
            digest.update(out.tobytes())
    return digest.hexdigest()


# The kernel's outputs over the pinned batches, with numpy 2.4.6 and scipy 1.17.1 (the
# versions the goldens were captured with); a change of kernel must keep every bit.
PINNED_DIGEST = "df22230bee0afe6d5bb7c75722815cdf79a96065230a06b00a4fdf1e519773d9"


@pytest.mark.parametrize("points", [sys.maxsize, -1, kernels.TAIL_POINTS],
                         ids=["tail-from-level-1", "no-tail", "shipped"])
def test_outputs_are_pinned_bit_for_bit(points):
    assert _pinned_digest(points) == PINNED_DIGEST


# 9000 points: the per-level loop hands over to the pass within the block.
_MID_BLOCK = (np.random.default_rng(21).uniform(0, 1, 150),
              np.random.default_rng(22).uniform(0, 1, (60, 150)), 20, 5.0)


class TestTailPass:
    """The one-pass scoring of a block's last levels against the per-level loop."""

    @pytest.mark.parametrize("high", [3, 12, 5000])
    def test_cells_of_many_levels_score_as_one_level_at_a_time(self, high):
        # small counts take the tables, large ones the direct route
        rng = np.random.default_rng(high)
        counts = rng.integers(0, high, (4, 400))
        conc = 5.0 * np.arange(3, 9) ** 2
        level = rng.integers(0, conc.size, 400)
        got = kernels.cell_log_evidence(*counts, conc, level)
        for lv, a in enumerate(conc):
            one = level == lv
            want = kernels.cell_log_evidence(*counts[:, one], float(a))
            assert got[one].tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(_tail_cases())
    @example(_MID_BLOCK)
    def test_tail_from_level_one_and_no_tail_agree_with_shipped(self, case):
        shipped = logbf_batch(*case)
        for points in (sys.maxsize, -1):  # the tail from level 1; the loop alone
            got = _with_tail_points(points, *case)
            assert all(np.array_equal(g, w) for g, w in zip(got, shipped))

    @settings(max_examples=40, deadline=None)
    @given(_tail_cases(max_n=60))
    def test_tail_from_level_one_matches_tree(self, case):
        u, v, depth_cap, c = case
        levels, depth, truncated = _with_tail_points(sys.maxsize, u, v, depth_cap, c)
        for b, row in enumerate(v):
            tree = build_count_tree(u if u.ndim == 1 else u[b], row, depth_cap)
            _, tree_levels = log_bayes_factor(tree, c)
            assert depth[b] == tree_levels.size
            assert truncated[b] == tree.truncated
            np.testing.assert_allclose(levels[b, :depth[b]], tree_levels, rtol=1e-12, atol=2e-9)
            assert not levels[b, depth[b]:].any()

    @settings(max_examples=40, deadline=None)
    @given(_tail_cases(max_n=60))
    def test_each_scored_cell_has_the_trees_counts(self, case):
        u, v, depth_cap, _ = case
        want = {}
        for b, row in enumerate(v):
            tree = build_count_tree(u if u.ndim == 1 else u[b], row, depth_cap)
            for cell in sorted(tree.cells, key=lambda cell: cell.address):
                want.setdefault((b, cell.level), []).append(cell.counts)
        for points in (sys.maxsize, -1, kernels.TAIL_POINTS):
            assert _scored_cells(points, u, v, depth_cap) == want


def _scored_cells(points, u, v, depth_cap):
    """Each retained cell's counts as the scorer receives them, by (row, level), in order.

    Scored at c = 1, so a cell's concentration k**2 names its level k.
    """
    cells = {}
    add_sums = kernels._add_sums

    def record(out, key, counts, a, level=None):
        k = np.rint(np.sqrt(a if level is None else a[level])).astype(np.int64)
        if level is None:
            rows = key
        else:  # flat keys, row * D + level - 1
            rows = key // depth_cap
            assert (key % depth_cap + 1 == k).all()
        for b, lv, col in zip(rows.tolist(), np.broadcast_to(k, key.shape).tolist(),
                              counts.T.tolist()):
            cells.setdefault((b, lv), []).append(tuple(col))
        add_sums(out, key, counts, a, level)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "TAIL_POINTS", points)
        mp.setattr(kernels, "_add_sums", record)
        logbf_batch(u, v, depth_cap, 1.0)
    return cells


def _xors_near_powers(depth_cap):
    """Every xor within 3 of a power of two, and 3 000 just under each of 2**53..2**60."""
    near = [(1 << i) + d for i in range(2 * depth_cap) for d in range(-3, 4)]
    under = [(1 << i) - d for i in range(53, 61) for d in range(1, 3001)]
    return np.unique([x for x in near + under if 0 <= x < 4**depth_cap]).astype(np.int64)


def _distinct_cell_depths(u, v, depth_cap):
    """Each row's depth and truncation flag, from its distinct cells at every level."""
    depth, truncated = [], []
    for addr in kernels._addresses(half_codes(u, depth_cap), half_codes(v, depth_cap)):
        shared = [j for j in range(depth_cap + 1)
                  if np.unique(addr >> 2 * (depth_cap - j)).size < addr.size]
        depth.append(min(depth_cap, shared[-1] + 1))
        truncated.append(shared[-1] == depth_cap)
    return depth, truncated


class TestSeparationLevels:
    """Separation levels, and the depth and truncation read from them."""

    @pytest.mark.parametrize("depth_cap", [1, 2, 20, 26, 27, 30])
    def test_levels_match_powers_of_four(self, depth_cap):
        # float exponents round near powers of two; the largest xors lose bits
        x = _xors_near_powers(depth_cap)
        addr = np.bitwise_xor.accumulate(np.append(0, x))
        s, last = kernels._separation(addr, addr.size, depth_cap)
        powers = 4 ** np.arange(depth_cap + 1, dtype=np.int64)
        want = np.append(0, depth_cap + 1 - np.searchsorted(powers, x, side="right"))
        assert s.tolist() == want.tolist()
        assert last.tolist() == np.maximum(want, np.append(want[1:], 0)).tolist()

    @settings(max_examples=60, deadline=None)
    @given(_tail_cases())
    @example(_MID_BLOCK)
    def test_depth_and_truncation_match_distinct_cells(self, case):
        u, v, depth_cap, c = case
        want = _distinct_cell_depths(u, v, depth_cap)
        for points in (sys.maxsize, -1, kernels.TAIL_POINTS):
            _, depth, truncated = _with_tail_points(points, *case)
            assert (depth.tolist(), truncated.tolist()) == want


class TestHalfCodes:
    """The one step from coordinates to integers, against its definition."""

    @pytest.mark.parametrize("depth_cap", [1, 2, 20, 26, 27, 30])
    def test_each_bit_of_the_cell_index_moves_to_twice_its_place(self, depth_cap):
        u = np.append([0.0, CLAMP_EPS, 0.5, 1 - CLAMP_EPS, 1 - 2**-53],
                      np.random.default_rng(depth_cap).uniform(0, 1, 200))
        codes = half_codes(u, depth_cap)
        assert codes.dtype == np.int64
        for x, code in zip(u.tolist(), codes.tolist()):
            cell = int(np.floor(x * 2**depth_cap))
            for k in range(1, depth_cap + 1):
                assert (code >> 2 * (depth_cap - k)) & 1 == (cell >> depth_cap - k) & 1
            assert code >> 2 * depth_cap - 1 == 0  # no bit above 2D - 2

    @pytest.mark.parametrize("bad", [1.0, -0.2, 1.5, np.nan, np.inf, -np.inf])
    def test_a_coordinate_outside_the_unit_interval_is_refused(self, bad):
        u = np.array([0.1, 1.0, 0.5, 0.7])
        u[1] = bad
        with pytest.raises(ValueError, match=rf"coordinates must lie in \[0, 1\), got {bad}"):
            half_codes(u, 20)

    def test_one_bad_coordinate_among_many_is_refused(self):
        # at the old kernel a u of 1.0 here moved the level sums with no error
        u = np.random.default_rng(0).uniform(0, 1, 5000)
        u[2500] = 1.0
        with pytest.raises(ValueError, match=r"got 1\.0"):
            half_codes(u, 20)

    @pytest.mark.parametrize("depth_cap", [1, 20, 30])
    def test_both_ends_of_the_unit_interval_are_accepted(self, depth_cap):
        codes = half_codes(np.array([0.0, 1 - 2**-53]), depth_cap)
        assert codes.tolist() == [0, int("01" * depth_cap, 2)]


class TestCodeRefusals:
    """The kernel refuses codes no route makes, naming what is wrong."""

    _U, _V = np.random.default_rng(30).uniform(0, 1, (2, 500))

    @pytest.mark.parametrize("name", ["cx", "cy"])
    def test_unit_floats_passed_as_codes_are_refused_by_name(self, name):
        codes = {"cx": half_codes(self._U, 10), "cy": half_codes(self._V, 10)}
        codes[name] = self._U
        message = rf"^{name} must hold integer half-codes, got dtype float64$"
        with pytest.raises(ValueError, match=message):
            kernels.logbf_batch(codes["cx"], codes["cy"], 10, 5.0)

    def test_codes_of_a_larger_depth_cap_are_refused(self):
        # before the check these scored as level sums of exactly 0.0
        cx, cy = half_codes(self._U, 20), half_codes(self._V, 20)
        with pytest.raises(ValueError, match=r"half-codes made at depth_cap 10$"):
            kernels.logbf_batch(cx, cy, 10, 5.0)
        # in a batch, one row of larger-cap codes is enough
        rows = np.stack([half_codes(self._U, 10)] * 3 + [cx])
        with pytest.raises(ValueError, match="depth_cap 10"):
            kernels.logbf_batch(rows, half_codes(self._V, 10), 10, 5.0)

    @pytest.mark.parametrize("name", ["cx", "cy"])
    def test_a_negative_code_is_refused(self, name):
        # before the check one negative code moved the level sum from 2.68 to -56.1
        codes = {"cx": half_codes(self._U, 10), "cy": half_codes(self._V, 10)}
        codes[name][0] = -5
        with pytest.raises(ValueError, match=r"half-codes made at depth_cap 10$"):
            kernels.logbf_batch(codes["cx"], codes["cy"], 10, 5.0)

    @pytest.mark.parametrize("depth_cap", [1, 10, 20, MAX_DEPTH_CAP])
    def test_codes_of_the_same_depth_cap_pass(self, depth_cap):
        # the largest coordinate codes to the largest address the cap allows
        u, v = np.append(self._U, 1 - 2**-53), np.append(self._V, 1 - 2**-53)
        cx, cy = half_codes(u, depth_cap), half_codes(v, depth_cap)
        assert (cx | cy << 1).max() == 4**depth_cap - 1
        levels, depth, _ = kernels.logbf_batch(cx, cy, depth_cap, 5.0)
        assert depth[0] >= 1 and levels[0, 0] != 0.0


def _counts(rng, top, cells):
    """Quadrant counts of ``cells`` cells, one of which totals exactly ``top``."""
    counts = rng.multinomial(top, [0.25] * 4, size=cells).T
    counts[:, 1:] = rng.integers(0, top // 4 + 1, (4, cells - 1))
    return counts


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _per_call(counts, a):
    """The cell terms at ``a`` through the route keyed by level, whose tables are built per call."""
    return kernels.cell_log_evidence(*counts, np.array([a]), np.zeros(counts.shape[1], int))


class TestKeptTables:
    """Each concentration's log-gamma tables, kept across calls of the cell term."""

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        monkeypatch.setattr(kernels, "_kept", {})

    @pytest.mark.parametrize("a", [C_RANGE[0], 0.3, 5.0, 45.0, 2000.0, C_RANGE[1] * 400])
    def test_cold_and_warm_tables_give_the_same_bits(self, a):
        rng = np.random.default_rng(31)
        # 3 * cells >= top + 1, so both take the table route
        small, large = _counts(rng, 40, 200), _counts(rng, 900, 600)
        cold_small = kernels.cell_log_evidence(*small, a)
        assert kernels._kept[a][0][1].size == 64
        cold_large = kernels.cell_log_evidence(*large, a)
        assert kernels._kept[a][0][1].size == 1024  # the table grew
        assert _bits(kernels.cell_log_evidence(*small, a)) == _bits(cold_small)
        assert _bits(kernels.cell_log_evidence(*large, a)) == _bits(cold_large)
        # and both equal the per-call tables of the route keyed by level
        for counts, cold in ((small, cold_small), (large, cold_large)):
            assert _bits(_per_call(counts, a)) == _bits(cold)

    def test_kept_tables_are_read_only_and_unchanged_by_calls(self):
        rng = np.random.default_rng(32)
        counts = _counts(rng, 300, 400)
        kernels.cell_log_evidence(*counts, 5.0)
        tables, const = kernels._kept[5.0]
        before = {s: t.copy() for s, t in tables.items()}
        for _ in range(3):
            terms = kernels.cell_log_evidence(*_counts(rng, 300, 400), 5.0)
            terms += 1.0  # the caller owns what is returned
        assert kernels._kept[5.0][0] is tables
        for s, t in tables.items():
            assert not t.flags.writeable
            assert _bits(t) == _bits(before[s])
            with pytest.raises(ValueError, match="read-only"):
                t[0] = 0.0
        assert const == kernels._constants(5.0)

    def test_a_sweep_over_many_c_keeps_at_most_key_cap_concentrations(self):
        # n above TAIL_POINTS, so the top levels are scored one at a time and
        # some of them through the kept tables
        n = kernels.TAIL_POINTS + 2000
        u, v = np.random.default_rng(33).uniform(0, 1, (2, n))
        cx, cy = half_codes(u, 20), half_codes(v, 20)
        largest, seen = 0, set()
        for c in np.linspace(0.5, 50.0, 1000):
            kernels.logbf_batch(cx, cy, 20, float(c))
            largest = max(largest, len(kernels._kept))
            seen.update(kernels._kept)
        assert 0 < len(kernels._kept) <= largest <= kernels.KEY_CAP < len(seen)
        # so the kept tables never exceed 16 MiB, however many c are swept
        assert kernels.KEY_CAP * 3 * kernels.TABLE_CAP * 8 <= 16 * 2**20

    def test_a_top_above_the_length_cap_is_built_per_call(self):
        top = kernels.TABLE_CAP
        counts = _counts(np.random.default_rng(34), top, top // 3 + 1)
        got = kernels.cell_log_evidence(*counts, 5.0)
        assert kernels._kept == {}
        assert _bits(got) == _bits(_per_call(counts, 5.0))
        # one below the cap is kept, at exactly the cap's length
        kernels.cell_log_evidence(*_counts(np.random.default_rng(35), top - 1, top // 3 + 1), 5.0)
        assert kernels._kept[5.0][0][4].size == top


class TestCallerArraysUnwritten:
    """The cell term accumulates in place only into arrays it made."""

    @pytest.mark.parametrize("top, cells", [(40, 200), (5000, 10)], ids=["tables", "direct"])
    @pytest.mark.parametrize("level", [False, True], ids=["one-level", "by-level"])
    def test_array_counts_are_unchanged(self, top, cells, level):
        counts = _counts(np.random.default_rng(36), top, cells)
        before = counts.copy()
        if level:
            kernels.cell_log_evidence(*counts, np.array([5.0, 80.0]), np.arange(cells) % 2)
        else:
            kernels.cell_log_evidence(*counts, 5.0)
        assert np.array_equal(counts, before)

    # (1, 0, 1, 0) takes the table route, the others evaluate directly
    @pytest.mark.parametrize("cell", [(1, 0, 1, 0), (3, 0, 1, 2), (40, 1, 2, 37), (1000, 3, 0, 999)])
    def test_int_counts_give_the_array_value(self, cell):
        got = kernels.cell_log_evidence(*cell, 5.0)
        assert np.ndim(got) == 0
        want = kernels.cell_log_evidence(*(np.array([k]) for k in cell), 5.0)
        assert _bits(got) == _bits(want[0])
