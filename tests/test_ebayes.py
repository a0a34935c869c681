import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptdep import diffscan, ebayes, engine, kernels, simulate, transforms
from ptdep.diffscan import ExpressionMatrix, diff_scan, p_diff, pairwise_scan
from ptdep.ebayes import (METHODS, ShiftSearchConfig, delta_candidates, ebayes_test, run_test,
                          run_tests)
from ptdep.errors import DegenerateSample
from ptdep.simulate import SimModel, permutation_null, power_experiment, run_replicates
from ptdep.transforms import PairedSample, wrap_at

from oracles import default_statistic, direct_test, looped_null, looped_power


class TestDeltaCandidates:
    def test_midpoints(self):
        cands = delta_candidates([1.0, 2.0, 3.0], ShiftSearchConfig(grid="midpoints"))
        assert cands.tolist() == [1.5, 2.5]

    def test_quantile_grid_size(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=1000)
        cands = delta_candidates(values, ShiftSearchConfig(grid=64))
        assert cands.size == 64
        assert values.min() < cands[0] and cands[-1] < values.max()
        assert np.all(np.diff(cands) > 0)

    @pytest.mark.parametrize("grid", [2.5, 4.0, True, "4", "quantile", None])
    def test_grid_neither_integer_nor_midpoints_rejected(self, grid):
        with pytest.raises(ValueError) as err:
            ShiftSearchConfig(grid=grid)
        assert str(err.value) == f"grid must be an integer or 'midpoints', got {grid!r}"

    @pytest.mark.parametrize("field, value, message", [
        ("axis_policy", "y", "axis_policy must be 'x' or 'xy', got 'y'"),
        ("axis_policy", None, "axis_policy must be 'x' or 'xy', got None"),
        ("grid", "bogus", "grid must be an integer or 'midpoints', got 'bogus'"),
        ("grid", 1, "grid must be >= 2, got 1"),
        ("grid", -3, "grid must be >= 2, got -3"),
    ])
    def test_unknown_axis_policy_or_grid_rejected(self, field, value, message):
        with pytest.raises(ValueError) as err:
            ShiftSearchConfig(**{field: value})
        assert str(err.value) == message

    def test_quantile_grid_size_is_at_most_2_to_the_20(self):
        # a finer grid adds no cut class the midpoints grid misses, only memory
        values = np.random.default_rng(2).normal(size=50)
        assert delta_candidates(values, ShiftSearchConfig(grid=2 ** 20)).size == 49
        for size in (2 ** 20 + 1, 10 ** 13):
            with pytest.raises(ValueError, match=f"^grid must be <= 1048576, got {size}$"):
                ShiftSearchConfig(grid=size)

    def test_numpy_integer_grid_size_cuts_as_int(self):
        values = np.random.default_rng(1).normal(size=200)
        cands = delta_candidates(values, ShiftSearchConfig(grid=np.int64(7)))
        assert cands.tolist() == delta_candidates(values, ShiftSearchConfig(grid=7)).tolist()

    def test_constant_vector(self):
        # no cut lies strictly inside a margin of one distinct value
        for grid in (4, "midpoints"):
            cands = delta_candidates([4.0, 4.0, 4.0], ShiftSearchConfig(grid=grid))
            assert cands.dtype == np.float64 and cands.tolist() == []

    def test_huge_values_cut_at_midpoints(self):
        cands = delta_candidates([1e17, 3e17, 2e17], ShiftSearchConfig(grid="midpoints"))
        assert cands.tolist() == [1.5e17, 2.5e17]

    def test_candidates_interior(self):
        values = [0.0, 0.0, 0.0, 1.0, 5.0]
        cands = delta_candidates(values, ShiftSearchConfig(grid=8))
        assert cands.size and np.all(cands > 0.0) and np.all(cands < 5.0)

    @pytest.mark.parametrize("grid", [4, "midpoints"])
    @pytest.mark.parametrize("values, message", [
        ([1.0, np.nan, 2.0, 3.0], "non-finite"),
        ([1.0, np.inf, 2.0], "non-finite"),
        ([1.0, -np.inf, 2.0], "non-finite"),
        ([[1.0, 2.0], [3.0, 4.0]], "one-dimensional"),
        ([], "at least one value"),
    ], ids=["nan", "inf", "-inf", "2-d", "empty"])
    def test_rejects_what_the_margin_map_rejects(self, values, message, grid):
        with pytest.raises(ValueError, match=message):
            delta_candidates(values, ShiftSearchConfig(grid=grid))


class TestEbayesTest:
    def test_never_below_basic(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(10, 200))
            sample = PairedSample(x=rng.normal(size=n), y=rng.normal(size=n))
            basic = engine.test_dependence(sample)
            eb = ebayes_test(sample)
            assert eb.p_dependent >= basic.p_dependent

    @pytest.mark.parametrize("two_valued", [False, True])
    def test_huge_offset_baseline_equals_basic_bitwise(self, two_valued):
        # x near 1e17, where lo - 1.0 == lo: the baseline must still wrap nothing
        rng = np.random.default_rng(3)
        z = rng.normal(size=60)
        x = 1e17 * (1.0 + (z > 0)) if two_valued else 1e17 + 1e4 * z
        sample = PairedSample(x=x, y=z + 0.3 * rng.normal(size=60))
        got = ebayes_test(sample)
        basic = engine.test_dependence(sample)
        assert (got.delta_star, got.shift_axis) == (None, None)
        assert got.level_contributions == basic.level_contributions
        assert (got.log_bf, got.p_dependent, got.truncated) == \
            (basic.log_bf, basic.p_dependent, basic.truncated)
        for scfg in _SEARCH_CONFIGS:
            _assert_same_search(sample, engine.PartitionConfig(), scfg)

    def test_empty_extra_grid_equals_basic_bitwise(self):
        rng = np.random.default_rng(2)
        # two distinct values: a grid that produces no interior candidates
        # leaves only the baseline row, which is the basic test
        x = np.array([0.0, 1.0] * 25)
        sample = PairedSample(x=x, y=rng.normal(size=50))
        scfg = ShiftSearchConfig(grid=2)
        assert delta_candidates(x, scfg).size == 0
        basic = engine.test_dependence(sample)
        eb = ebayes_test(sample, scfg=scfg)
        assert eb.log_bf == basic.log_bf
        assert eb.p_dependent == basic.p_dependent
        assert eb.delta_star is None

    def test_sentinel_preferred_on_ties(self):
        # perfectly symmetric two-point sample: every centering gives the
        # same evidence, so the baseline must win
        sample = PairedSample(x=[0.0, 1.0], y=[0.0, 1.0])
        eb = ebayes_test(sample, scfg=ShiftSearchConfig(grid="midpoints"))
        basic = engine.test_dependence(sample)
        if eb.log_bf == basic.log_bf:
            assert eb.delta_star is None

    def test_sinusoidal_gain(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, 5, 150)
        y = 2.0 * np.sin(x) + 2.0 * rng.standard_normal(150)
        sample = PairedSample(x=x, y=y)
        basic = engine.test_dependence(sample)
        eb = ebayes_test(sample)
        assert eb.p_dependent >= basic.p_dependent
        assert eb.method == "ebayes"

    def test_monotone_in_grid_size(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-5, 5, 120)
        y = 2.0 * np.sin(x) + 2.0 * rng.standard_normal(120)
        sample = PairedSample(x=x, y=y)
        p_small = ebayes_test(sample, scfg=ShiftSearchConfig(grid=4)).p_dependent
        p_big = ebayes_test(sample, scfg=ShiftSearchConfig(grid=64)).p_dependent
        # the size-4 quantile grid is not a subset of the size-64 one in
        # general, but the sentinel keeps both above basic
        basic = engine.test_dependence(sample).p_dependent
        assert p_small >= basic and p_big >= basic

    def test_midpoint_grid_is_superset_of_any_centering(self):
        # midpoints exhaust all distinct partitions, so they dominate a
        # coarse quantile grid on the same data
        rng = np.random.default_rng(5)
        x = rng.uniform(-5, 5, 60)
        y = 2.0 * np.sin(x) + rng.standard_normal(60)
        sample = PairedSample(x=x, y=y)
        p_quant = ebayes_test(sample, scfg=ShiftSearchConfig(grid=8))
        p_mid = ebayes_test(sample, scfg=ShiftSearchConfig(grid="midpoints"))
        assert p_mid.p_dependent >= p_quant.p_dependent - 1e-15

    def test_single_point(self):
        res = ebayes_test(PairedSample(x=[1.0], y=[2.0]))
        assert res.p_dependent == 0.5
        assert res.method == "ebayes"

    def test_xy_policy_runs_both_axes(self):
        rng = np.random.default_rng(6)
        y = rng.uniform(-5, 5, 150)
        x = 2.0 * np.sin(y) + 2.0 * rng.standard_normal(150)  # structure lives on y
        sample = PairedSample(x=x, y=y)
        x_only = ebayes_test(sample, scfg=ShiftSearchConfig(axis_policy="x"))
        both = ebayes_test(sample, scfg=ShiftSearchConfig(axis_policy="xy"))
        assert both.p_dependent >= x_only.p_dependent

    def test_delta_star_recorded(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-5, 5, 150)
        y = 2.0 * np.sin(x) + 0.5 * rng.standard_normal(150)
        eb = ebayes_test(PairedSample(x=x, y=y))
        if eb.delta_star is not None:
            assert x.min() <= eb.delta_star <= x.max()
            assert eb.shift_axis == "x"

    def test_degenerate_propagates(self):
        with pytest.raises(DegenerateSample):
            ebayes_test(PairedSample(x=[1.0, 1.0], y=[2.0, 3.0]))


def _raw_cuts(values, scfg):
    """Every cut of an axis's grid inside the data range, none merged."""
    if scfg.grid == "midpoints":
        distinct = np.unique(values)
        return 0.5 * (distinct[:-1] + distinct[1:])
    q = np.quantile(values, np.arange(1, scfg.grid + 1) / (scfg.grid + 1.0))
    return q[(q > np.min(values)) & (q < np.max(values))]


def _looped_ebayes(sample, cfg, scfg):
    """The centering search one raw cut at a time through ``direct_test``."""
    best, best_delta, best_axis = direct_test(sample, cfg), None, None
    for axis in ("x",) if scfg.axis_policy == "x" else ("x", "y"):
        for delta in _raw_cuts(sample.x if axis == "x" else sample.y, scfg):
            try:
                if axis == "x":
                    wrapped = PairedSample(x=wrap_at(sample.x, float(delta)), y=sample.y)
                else:
                    wrapped = PairedSample(x=sample.x, y=wrap_at(sample.y, float(delta)))
                res = direct_test(wrapped, cfg)
            except DegenerateSample:
                continue
            if res.log_bf < best.log_bf:
                best, best_delta, best_axis = res, float(delta), axis
    return best, best_delta, best_axis


def _assert_same_search(sample, cfg, scfg):
    try:
        best, delta, axis = _looped_ebayes(sample, cfg, scfg)
    except DegenerateSample as exc:
        with pytest.raises(DegenerateSample, match=re.escape(str(exc))):
            ebayes_test(sample, cfg, scfg)
        return
    got = ebayes_test(sample, cfg, scfg)
    assert got.level_contributions == best.level_contributions
    assert (got.log_bf, got.p_dependent, got.truncated) == \
        (best.log_bf, best.p_dependent, best.truncated)
    assert (got.delta_star, got.shift_axis) == (delta, axis)


_SEARCH_CONFIGS = [
    ShiftSearchConfig(),
    ShiftSearchConfig(axis_policy="xy", grid=9),
    ShiftSearchConfig(grid="midpoints", axis_policy="xy"),
]


@st.composite
def _margins(draw, n):
    kind = draw(st.sampled_from(["rounded", "two_valued", "zero_inflated"]))
    z = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=n)
    if kind == "rounded":
        z = np.round(z, 1)
    elif kind == "two_valued":
        z = (z > 0).astype(np.float64)
    else:
        z = np.where(z < 0.0, 0.0, np.exp(z))
    # past 2**53, where lo - 1.0 == lo
    return 1e17 + 1e4 * z if draw(st.booleans()) else z


@st.composite
def _samples(draw):
    n = draw(st.integers(2, 60))
    return PairedSample(x=draw(_margins(n)), y=draw(_margins(n)))


class TestBatchedCandidates:
    @pytest.mark.parametrize("scfg", _SEARCH_CONFIGS)
    def test_equals_per_candidate_loop(self, scfg):
        rng = np.random.default_rng(21)
        for n in (3, 40, 700):
            x = rng.normal(size=n)
            y = np.sin(2.0 * x) + 0.3 * rng.normal(size=n)
            _assert_same_search(PairedSample(x=x, y=y), engine.PartitionConfig(c=1.0), scfg)

    @settings(max_examples=150, deadline=None)
    @given(_samples(), st.sampled_from(_SEARCH_CONFIGS + [ShiftSearchConfig(grid=200)]))
    def test_property_equals_per_candidate_loop(self, sample, scfg):
        _assert_same_search(sample, engine.PartitionConfig(c=1.0), scfg)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(10, 60), st.sampled_from(_SEARCH_CONFIGS))
    def test_property_zero_cut_free_of_row_order(self, seed, n, scfg):
        # np.round gives -0.0 for small negatives, so the margins hold both zeros
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(size=n))
        y = np.round(rng.normal(size=n))
        x[:3] = (0.0, -0.0, 1.0)
        y[:3] = (-0.0, 0.0, 1.0)
        order = rng.permutation(n)
        got = ebayes_test(PairedSample(x=x[order], y=y[order]), scfg=scfg)
        want = ebayes_test(PairedSample(x=x, y=y), scfg=scfg)
        # repr tells 0.0 from -0.0
        assert (repr(got.delta_star), got.shift_axis, got.log_bf) == \
            (repr(want.delta_star), want.shift_axis, want.log_bf)

    @pytest.mark.parametrize("seed, tied", [(22, False), (23, True)])
    def test_grid_beyond_n_equals_every_raw_quantile_cut(self, seed, tied):
        # 1000 quantile cuts at n = 40 fall into at most 39 distinct wraps
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, 40)
        if tied:
            x = np.round(x)  # many cuts land on a data value, the winning one too
        sample = PairedSample(x=x, y=np.sin(x) + 0.5 * rng.normal(size=40))
        scfg = ShiftSearchConfig(grid=1000, axis_policy="xy")
        assert delta_candidates(x, scfg).size <= np.unique(x).size
        delta = _looped_ebayes(sample, engine.PartitionConfig(), scfg)[1]
        assert delta is not None and (delta in x) == tied
        _assert_same_search(sample, engine.PartitionConfig(), scfg)

    def test_degenerate_candidates_skipped(self):
        # wrapping a two-valued margin at its midpoint makes it constant
        x = np.array([0.0, 1.0] * 10)
        y = np.arange(20.0)
        scfg = ShiftSearchConfig(grid="midpoints", axis_policy="xy")
        got = ebayes_test(PairedSample(x=x, y=y), scfg=scfg)
        best, delta, axis = _looped_ebayes(PairedSample(x=x, y=y), engine.PartitionConfig(), scfg)
        assert (got.log_bf, got.delta_star, got.shift_axis) == (best.log_bf, delta, axis)


def _assert_same_result(got, want):
    assert got.level_contributions == want.level_contributions
    assert (got.log_bf, got.p_dependent, got.truncated, got.n, got.method) == \
        (want.log_bf, want.p_dependent, want.truncated, want.n, want.method)
    assert (got.delta_star, got.shift_axis) == (want.delta_star, want.shift_axis)


def _assert_scan_equals_per_pair(m, cfg, scfg):
    out = pairwise_scan(m, cfg, method="ebayes", scfg=scfg)
    pairs = [(i, j) for i in range(m.n_vars) for j in range(i + 1, m.n_vars)]
    assert [(p.var_a, p.var_b) for p in out] == [(m.var_names[i], m.var_names[j])
                                                 for i, j in pairs]
    for pr, (i, j) in zip(out, pairs):
        sample = PairedSample(x=m.values[:, i], y=m.values[:, j])
        try:
            want = run_test(sample, "ebayes", cfg, scfg)
        except DegenerateSample as exc:
            assert pr.result is None and pr.error == str(exc)
            continue
        assert pr.error is None
        _assert_same_result(pr.result, want)


def _ebayes_matrix(rng, n):
    """Continuous, rounded, two-valued, constant and zero-inflated columns."""
    z = rng.normal(size=(n, 6))
    values = np.column_stack([z[:, 0], np.sin(2.0 * z[:, 0]) + 0.3 * z[:, 1], np.round(z[:, 2]),
                              (z[:, 3] > 0).astype(float), np.full(n, 2.5),
                              np.where(z[:, 5] < 0.0, 0.0, np.exp(z[:, 5]))])
    return ExpressionMatrix(values=values, var_names=tuple("abcdef"))


class TestBatchedScan:
    @pytest.mark.parametrize("scfg", _SEARCH_CONFIGS + [ShiftSearchConfig(grid="midpoints")])
    @pytest.mark.parametrize("n", [1, 2, 3, 40, 250])
    def test_equals_per_pair_run_test(self, n, scfg):
        m = _ebayes_matrix(np.random.default_rng(30 + n), n)
        _assert_scan_equals_per_pair(m, engine.PartitionConfig(), scfg)

    def test_other_config_equals_per_pair_run_test(self):
        m = _ebayes_matrix(np.random.default_rng(31), 60)
        cfg = engine.PartitionConfig(c=0.5, depth_cap=6, prior_odds=2.0)
        _assert_scan_equals_per_pair(m, cfg, ShiftSearchConfig(axis_policy="xy", grid=9))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.lists(_margins(n), min_size=2, max_size=4)),
           st.sampled_from(_SEARCH_CONFIGS))
    def test_property_equals_per_pair_run_test(self, columns, scfg):
        m = ExpressionMatrix(values=np.column_stack(columns),
                             var_names=tuple(f"v{i}" for i in range(len(columns))))
        _assert_scan_equals_per_pair(m, engine.PartitionConfig(c=1.0), scfg)

    @pytest.mark.parametrize("scfg", _SEARCH_CONFIGS[:2])
    def test_diff_scan_equals_per_pair_run_test(self, scfg):
        rng = np.random.default_rng(32)
        m_a, m_b = _ebayes_matrix(rng, 80), _ebayes_matrix(rng, 50)
        edges = diff_scan(m_a, m_b, threshold=0.0, method="ebayes", scfg=scfg)
        want = []
        for i in range(m_a.n_vars):
            for j in range(i + 1, m_a.n_vars):
                try:
                    p = [run_test(PairedSample(x=mat.values[:, i], y=mat.values[:, j]),
                                  "ebayes", scfg=scfg).p_dependent for mat in (m_a, m_b)]
                except DegenerateSample:
                    continue
                want.append((m_a.var_names[i], m_a.var_names[j], *p, p_diff(*p)))
        assert [(e.var_a, e.var_b, e.p_dep_a, e.p_dep_b, e.p_diff) for e in edges] == want


class TestBatchedNull:
    @pytest.mark.parametrize("method, scfg", [pytest.param("basic", None, id="basic")] + [
        pytest.param("ebayes", scfg, id=f"scfg{i}") for i, scfg in enumerate(_SEARCH_CONFIGS)])
    @pytest.mark.parametrize("n, n_perm, kind", [(2, 30, "continuous"), (3, 30, "continuous"),
                                                 (40, 400, "continuous"), (60, 50, "tied"),
                                                 (60, 50, "two_valued")])
    def test_equals_looped_statistic_with_the_same_draws(self, n, n_perm, kind, method, scfg):
        rng = np.random.default_rng(33 + n)
        x = rng.normal(size=n)
        y = np.sin(2.0 * x) + 0.5 * rng.normal(size=n)
        if kind == "tied":
            x, y = np.round(x), np.where(y < 0.0, 0.0, np.round(y, 1))
        elif kind == "two_valued":
            y = (y > 0).astype(float)
        sample = PairedSample(x=x, y=y)
        cfg = engine.PartitionConfig(c=2.0, prior_odds=1.5)
        batched_rng, looped_rng = np.random.default_rng(7), np.random.default_rng(7)
        batched = simulate._default_null(sample, n_perm, cfg, method, scfg, batched_rng)
        looped = looped_null(sample, n_perm, looped_rng, default_statistic(cfg, method, scfg))
        assert batched.tobytes() == looped.tobytes()
        assert batched_rng.random(3).tobytes() == looped_rng.random(3).tobytes()

    @pytest.mark.parametrize("scfg", _SEARCH_CONFIGS[:2])
    def test_power_permutation_threshold_matches_looped_route(self, scfg):
        cfg = engine.PartitionConfig()
        kwargs = dict(n=40, reps=3, seed=5, method="ebayes", scfg=scfg,
                      threshold_source="permutation_quantile", n_perm=30)
        batched = power_experiment(SimModel(kind="sinusoidal"), cfg=cfg, **kwargs)
        assert (batched.tpr, batched.fpr, batched.threshold) == \
            looped_power(SimModel(kind="sinusoidal"), cfg=cfg, **kwargs)


class TestCallSizes:
    """Scan and null results do not depend on how their rows fill kernel calls.

    At n = 30, calls of 1 row score each candidate alone; calls of 5, 20 and
    64 rows are shared by segments, cut them between tables and split a
    table's rows across calls. At n = 1 each table is its unwrapped row, five
    to a call.
    """

    _METHODS = [("basic", None)] + [("ebayes", scfg) for scfg in _SEARCH_CONFIGS]
    _SIZES = [pytest.param(rows, 30, id=str(rows)) for rows in (1, 5, 20, 64)] + \
        [pytest.param(5, 1, id="n1")]

    @pytest.mark.parametrize("rows, n", _SIZES)
    @pytest.mark.parametrize("method, scfg", _METHODS)
    def test_scan_equals_per_pair_run_test(self, rows, n, method, scfg, monkeypatch):
        m = _ebayes_matrix(np.random.default_rng(50 + rows), n)
        cfg = engine.PartitionConfig(c=2.0)
        pairs = [(i, j) for i in range(m.n_vars) for j in range(i + 1, m.n_vars)]
        want = {}
        for i, j in pairs:
            try:
                want[i, j] = _single(PairedSample(x=m.values[:, i], y=m.values[:, j]),
                                     method, cfg, scfg)
            except DegenerateSample:
                pass
        monkeypatch.setattr(kernels, "CHUNK_POINTS", rows * m.n_samples)
        out = pairwise_scan(m, cfg, method=method, scfg=scfg)
        assert sum(p.result is not None for p in out) == len(want) > 0
        for pr, pair in zip(out, pairs):
            if pair in want:
                _assert_same_result(pr.result, want[pair])
            else:
                assert pr.result is None and pr.error is not None

    @pytest.mark.parametrize("rows, n", _SIZES)
    @pytest.mark.parametrize("method, scfg", _METHODS)
    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    def test_null_equals_looped_statistic(self, rows, n, method, scfg, kind, monkeypatch):
        rng = np.random.default_rng(60 + rows)
        x = rng.normal(size=n)
        y = np.sin(2.0 * x) + 0.5 * rng.normal(size=n)
        if kind == "tied":
            x, y = np.round(x), np.where(y < 0.0, 0.0, np.round(y, 1))
        sample = PairedSample(x=x, y=y)
        cfg = engine.PartitionConfig(c=2.0)
        looped_rng = np.random.default_rng(7)
        want = looped_null(sample, 60, looped_rng, default_statistic(cfg, method, scfg)).tolist()
        monkeypatch.setattr(kernels, "CHUNK_POINTS", rows * sample.n)
        batched_rng = np.random.default_rng(7)
        got = simulate._default_null(sample, 60, cfg, method, scfg, batched_rng)
        assert got.tolist() == want
        assert batched_rng.random() == looped_rng.random()  # the same draws were taken

    def test_one_large_table_fills_every_call_but_the_last(self, monkeypatch):
        # about 2 000 midpoint rows at n = 1000, where a call holds 32
        rng = np.random.default_rng(24)
        x = rng.standard_normal(1000)
        sample = PairedSample(x=x, y=x + 0.2 * rng.standard_normal(1000))
        scfg = ShiftSearchConfig(grid="midpoints", axis_policy="xy")
        sizes, batch = [], kernels.logbf_batch

        def spy(u, v, *args):
            sizes.append(np.broadcast_shapes(np.atleast_2d(u).shape, np.atleast_2d(v).shape)[0])
            return batch(u, v, *args)

        monkeypatch.setattr(kernels, "logbf_batch", spy)
        ebayes_test(sample, scfg=scfg)
        step = kernels.rows_per_call(1000)
        assert sum(sizes) == 1 + delta_candidates(sample.x, scfg).size + \
            delta_candidates(sample.y, scfg).size
        assert set(sizes[:-1]) == {step} and 0 < sizes[-1] <= step

    @pytest.mark.parametrize("deltas", [(0.25, 0.75), (0.75, 0.25)])
    def test_equal_rows_in_separate_calls_keep_the_first(self, deltas, monkeypatch):
        rng = np.random.default_rng(25)
        row, fixed = rng.uniform(size=40), rng.uniform(size=40)
        monkeypatch.setattr(kernels, "CHUNK_POINTS", row.size)  # one row per call
        calls, batch = [], kernels.logbf_batch

        def spy(*args):
            calls.append(args)
            return batch(*args)

        monkeypatch.setattr(kernels, "logbf_batch", spy)
        table = [ebayes.Segment(0, "x", deltas[0], row, fixed),
                 ebayes.Segment(0, "x", deltas[1], row.copy(), fixed)]
        (log_bf, delta, axis, _, _), = ebayes.best_candidates([table], engine.PartitionConfig())
        assert len(calls) == 2
        assert (delta, axis) == (deltas[0], "x")


_MATRIX = ExpressionMatrix(values=np.random.default_rng(9).standard_normal((20, 3)),
                           var_names=("a", "b", "c"))
_MODEL = SimModel(kind="linear")


@pytest.mark.parametrize("call", [
    lambda: pairwise_scan(_MATRIX, method="bogus"),
    lambda: diff_scan(_MATRIX, _MATRIX, method="bogus"),
    lambda: run_replicates(_MODEL, 20, 2, method="bogus"),
    lambda: power_experiment(_MODEL, 20, 2, method="bogus"),
    lambda: run_test(PairedSample(x=[1.0, 2.0, 3.0], y=[3.0, 1.0, 2.0]), "bogus"),
], ids=["pairwise_scan", "diff_scan", "run_replicates", "power_experiment", "run_test"])
def test_unknown_method_names_the_methods(call):
    with pytest.raises(ValueError, match=re.escape(str(METHODS))):
        call()


@pytest.mark.parametrize("call", [
    lambda scfg: run_test(PairedSample(x=[1.0, 2.0, 3.0], y=[3.0, 1.0, 2.0]), "basic", None, scfg),
    lambda scfg: pairwise_scan(_MATRIX, method="basic", scfg=scfg),
], ids=["run_test", "pairwise_scan"])
def test_basic_method_refuses_a_search_config(call):
    # the basic test runs no centering search, so a config for one is refused, not ignored
    with pytest.raises(ValueError, match="scfg applies only with method 'ebayes'"):
        call(ShiftSearchConfig(grid="midpoints"))
    call(None)


def _single(sample, method, cfg, scfg):
    """A sample's result through ``ebayes_test``, or ``direct_test`` for the basic test."""
    if method == "ebayes":
        return ebayes_test(sample, cfg, scfg)
    return direct_test(sample, cfg)


@st.composite
def _batches(draw):
    """Same-size samples with continuous, tied, zero-inflated or constant margins."""
    n = draw(st.sampled_from([1, 2, 3, 60]))
    count = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["continuous", "tied", "zero_inflated"])
    samples = []
    for _ in range(count):
        x, y = rng.normal(size=(2, n))
        y = np.sin(2.0 * x) + draw(st.sampled_from([0.3, 3.0])) * y
        for name, z in (("x", x), ("y", y)):
            kind = draw(kinds)
            if kind == "tied":
                z[:] = np.round(z)
            elif kind == "zero_inflated":
                z[:] = np.where(z < 0.5, 0.0, z)
        samples.append(PairedSample(x=x, y=y))
    if draw(st.integers(0, 5)) == 0:
        samples.insert(draw(st.integers(0, count)), PairedSample(x=np.arange(n), y=np.full(n, 2.0)))
    return samples


# one-point samples, which every method scores as the prior
_ONE_POINT = [PairedSample(x=[0.3], y=[-1.2]), PairedSample(x=[4.0], y=[2.0]),
              PairedSample(x=[4.0], y=[7.5])]


class TestRunTests:
    @settings(max_examples=120, deadline=None)
    @given(_batches(), st.sampled_from(METHODS), st.sampled_from(_SEARCH_CONFIGS),
           st.sampled_from([1, 2, 7, None]))
    @example(_ONE_POINT, "basic", _SEARCH_CONFIGS[0], None)
    @example(_ONE_POINT, "ebayes", _SEARCH_CONFIGS[2], 1)
    def test_batch_equals_single_calls(self, samples, method, scfg, rows):
        scfg = scfg if method == "ebayes" else None  # the basic test refuses a search config
        cfg = engine.PartitionConfig(c=2.0, prior_odds=0.5)
        n = samples[0].n
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:  # calls of a few rows, so the batch spans several
                mp.setattr(kernels, "CHUNK_POINTS", rows * n)
            try:
                want = [_single(s, method, cfg, scfg) for s in samples]
            except DegenerateSample as exc:
                with pytest.raises(DegenerateSample, match=re.escape(str(exc))):
                    list(run_tests(samples, method, cfg, scfg))
                return
            got = list(run_tests(samples, method, cfg, scfg))
            singles = [run_test(s, method, cfg, scfg) for s in samples]
        assert len(got) == len(want) == len(singles)
        for g, w, s in zip(got, want, singles):
            _assert_same_result(g, w)
            _assert_same_result(s, w)

    def test_lazy_input_read_as_calls_fill(self):
        # basic reads one call's samples beyond what it has yielded, no more
        drawn = []

        def samples():
            for r in range(1000):
                drawn.append(r)
                yield simulate.generate(SimModel(kind="linear"), 300, r)

        out = run_tests(samples(), "basic")
        next(out)
        assert len(drawn) == kernels.rows_per_call(300)

    def test_sizes_must_match(self):
        samples = [PairedSample(x=[1.0, 2.0, 3.0], y=[2.0, 1.0, 3.0]),
                   PairedSample(x=[1.0, 2.0], y=[2.0, 1.0])]
        for method in METHODS:
            with pytest.raises(ValueError, match="samples must share one size, got 3 and 2"):
                list(run_tests(samples, method))

    def test_empty_input_yields_nothing(self):
        assert list(run_tests([], "ebayes")) == []


# x spans more than the float range, so every wrap of x overflows
_HUGE_X = [-1e308, 0.0, 1e308, 5.0, -3.0, 2.0]
_HUGE_Y = [1.0, 2.0, 0.5, 3.0, -1.0, 4.0]


class TestHugeRangeMargin:
    def test_overflowing_cuts_are_skipped(self):
        sample = PairedSample(x=_HUGE_X, y=_HUGE_Y)
        got = ebayes_test(sample, scfg=ShiftSearchConfig(grid="midpoints"))
        want = direct_test(sample)
        assert (got.level_contributions, got.log_bf, got.delta_star) == \
            (want.level_contributions, want.log_bf, None)
        # the other axis is still searched
        xy = ebayes_test(PairedSample(x=_HUGE_Y, y=_HUGE_X), scfg=ShiftSearchConfig(axis_policy="xy"))
        assert xy.shift_axis == "x" and xy.log_bf < want.log_bf

    def test_scan(self):
        m = ExpressionMatrix(values=np.column_stack([_HUGE_X, _HUGE_Y, _HUGE_X[::-1]]),
                             var_names=("a", "b", "c"))
        _assert_scan_equals_per_pair(m, engine.PartitionConfig(), ShiftSearchConfig(axis_policy="xy"))
        assert all(p.result is not None for p in pairwise_scan(m, method="ebayes"))

    @pytest.mark.parametrize("scfg", _SEARCH_CONFIGS)
    def test_permutation_null(self, scfg):
        sample = PairedSample(x=_HUGE_X * 3, y=_HUGE_Y * 3)
        cfg = engine.PartitionConfig()
        batched = simulate._default_null(sample, 40, cfg, "ebayes", scfg, np.random.default_rng(8))
        looped = looped_null(sample, 40, np.random.default_rng(8),
                             default_statistic(cfg, "ebayes", scfg))
        assert batched.tobytes() == looped.tobytes()


@pytest.fixture
def mapped(monkeypatch):
    """Sizes of the margins the routes map, through each binding of the one margin map."""
    sizes = []

    def spy(values):
        out = transforms.to_unit_interval(values)
        sizes.append(out.size)
        return out

    for module in (ebayes, simulate, diffscan):
        monkeypatch.setattr(module, "to_unit_interval", spy)
    return sizes


class TestEachMarginMappedOnce:
    """Each route maps a margin once, and an ebayes table each usable cut once more."""

    _rng = np.random.default_rng(70)
    _x = _rng.normal(size=40)
    _sample = PairedSample(x=_x, y=np.sin(2.0 * _x) + 0.3 * _rng.normal(size=40))
    # y holds two values, so its one midpoint cut wraps it onto a constant
    _tied = PairedSample(x=np.round(2.0 * _x), y=(_x > 0.0).astype(float))

    def test_basic_scan_maps_each_column_once(self, mapped):
        values = np.column_stack([self._x, self._sample.y, np.round(self._x), np.exp(self._x)])
        pairwise_scan(ExpressionMatrix(values=values, var_names=tuple("abcd")))
        assert mapped == [40] * 4

    def test_permutation_null_maps_both_margins_once(self, mapped):
        permutation_null(self._sample, n_perm=500)
        assert mapped == [40, 40]

    def test_basic_test_maps_both_margins(self, mapped):
        run_test(self._sample, "basic")
        assert mapped == [40, 40]

    @pytest.mark.parametrize("scfg", [ShiftSearchConfig(), ShiftSearchConfig(axis_policy="xy"),
                                      ShiftSearchConfig(axis_policy="xy", grid="midpoints")])
    @pytest.mark.parametrize("tied", [False, True])
    def test_ebayes_maps_both_margins_and_each_usable_cut(self, scfg, tied, mapped):
        sample = self._tied if tied else self._sample
        margins = [sample.x] + ([sample.y] if scfg.axis_policy == "xy" else [])
        usable = sum(np.unique(wrap_at(v, d)).size > 1
                     for v in margins for d in delta_candidates(v, scfg))
        ebayes_test(sample, scfg=scfg)
        assert len(mapped) == 2 + usable


class TestCutRows:
    _values = np.random.default_rng(30).normal(size=60)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_basic_search_cuts_no_axis(self, axis):
        assert list(ebayes.cut_rows(self._values, None, axis)) == []

    def test_x_policy_cuts_no_y(self):
        scfg = ShiftSearchConfig(axis_policy="x")
        assert list(ebayes.cut_rows(self._values, scfg, "x"))
        assert list(ebayes.cut_rows(self._values, scfg, "y")) == []

    @pytest.mark.parametrize("grid", [4, "midpoints"])
    def test_xy_policy_cuts_y_as_x(self, grid):
        scfg = ShiftSearchConfig(axis_policy="xy", grid=grid)
        on_x = list(ebayes.cut_rows(self._values, scfg, "x"))
        on_y = list(ebayes.cut_rows(self._values, scfg, "y"))
        assert on_x and [d for d, _ in on_y] == [d for d, _ in on_x]
        assert [r.tobytes() for _, r in on_y] == [r.tobytes() for _, r in on_x]

    @pytest.mark.parametrize("method, scfg", [("basic", None),
                                              ("ebayes", ShiftSearchConfig(axis_policy="x"))])
    def test_scan_without_xy_builds_no_y_row(self, method, scfg, monkeypatch):
        built = []
        cut_rows = diffscan.cut_rows

        def spy(values, search, axis):
            for delta, row in cut_rows(values, search, axis):
                built.append(axis)
                yield delta, row

        monkeypatch.setattr(diffscan, "cut_rows", spy)
        m = _ebayes_matrix(np.random.default_rng(31), 50)
        pairwise_scan(m, method=method, scfg=scfg)
        assert "y" not in built
        assert bool(built) == (method == "ebayes")  # x rows only where the search cuts
