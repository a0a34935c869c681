import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptdep import engine
from ptdep.diffscan import ExpressionMatrix, diff_scan, pairwise_scan
from ptdep.ebayes import METHODS, ShiftSearchConfig, delta_candidates, ebayes_test
from ptdep.errors import DegenerateSample
from ptdep.simulate import (SimModel, abs_pearson, default_statistic, power_experiment,
                            run_replicates)
from ptdep.transforms import PairedSample, ShiftSpec, shift_wrap


class TestDeltaCandidates:
    def test_midpoints(self):
        cands = delta_candidates([1.0, 2.0, 3.0], ShiftSearchConfig(grid="midpoints"))
        assert cands[0] < 1.0  # sentinel below the minimum
        assert cands[1:].tolist() == [1.5, 2.5]

    def test_quantile_grid_size(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=1000)
        cands = delta_candidates(values, ShiftSearchConfig(grid="quantile", grid_size=64))
        assert cands.size == 65  # 64 quantiles + sentinel
        assert cands[0] < values.min()
        assert np.all(np.diff(cands) > 0)

    def test_constant_vector(self):
        with pytest.raises(DegenerateSample):
            delta_candidates([4.0, 4.0, 4.0], ShiftSearchConfig())

    def test_sentinel_below_huge_minimum(self):
        # lo - 1.0 rounds back to lo once |lo| >= 2**53
        cands = delta_candidates([1e17, 3e17, 2e17], ShiftSearchConfig(grid="midpoints"))
        assert cands[0] < 1e17
        assert cands[1:].tolist() == [1.5e17, 2.5e17]

    def test_candidates_interior(self):
        values = [0.0, 0.0, 0.0, 1.0, 5.0]
        cands = delta_candidates(values, ShiftSearchConfig(grid="quantile", grid_size=8))
        interior = cands[1:]
        assert np.all(interior > 0.0) and np.all(interior < 5.0)


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
        scfg = ShiftSearchConfig(grid="quantile", grid_size=2)
        cands = delta_candidates(x, scfg)
        basic = engine.test_dependence(sample)
        eb = ebayes_test(sample, scfg=scfg)
        if cands.size == 1:  # only the sentinel
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
        p_small = ebayes_test(sample, scfg=ShiftSearchConfig(grid_size=4)).p_dependent
        p_big = ebayes_test(sample, scfg=ShiftSearchConfig(grid_size=64)).p_dependent
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
        p_quant = ebayes_test(sample, scfg=ShiftSearchConfig(grid="quantile", grid_size=8))
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
    q = np.quantile(values, np.arange(1, scfg.grid_size + 1) / (scfg.grid_size + 1.0))
    return q[(q > np.min(values)) & (q < np.max(values))]


def _looped_ebayes(sample, cfg, scfg):
    """The centering search one raw cut at a time through ``_evaluate``."""
    best, best_delta, best_axis = engine._evaluate(sample, cfg), None, None
    for axis in ("x",) if scfg.axis_policy == "x" else ("x", "y"):
        for delta in _raw_cuts(sample.x if axis == "x" else sample.y, scfg):
            try:
                res = engine._evaluate(shift_wrap(sample, ShiftSpec(float(delta), axis)), cfg)
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
    ShiftSearchConfig(axis_policy="xy", grid_size=9),
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
    @given(_samples(), st.sampled_from(_SEARCH_CONFIGS + [ShiftSearchConfig(grid_size=200)]))
    def test_property_equals_per_candidate_loop(self, sample, scfg):
        _assert_same_search(sample, engine.PartitionConfig(c=1.0), scfg)

    @pytest.mark.parametrize("seed, tied", [(22, False), (23, True)])
    def test_grid_beyond_n_equals_every_raw_quantile_cut(self, seed, tied):
        # 1000 quantile cuts at n = 40 fall into at most 39 distinct wraps
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, 40)
        if tied:
            x = np.round(x)  # many cuts land on a data value, the winning one too
        sample = PairedSample(x=x, y=np.sin(x) + 0.5 * rng.normal(size=40))
        scfg = ShiftSearchConfig(grid_size=1000, axis_policy="xy")
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


_MATRIX = ExpressionMatrix(values=np.random.default_rng(9).standard_normal((20, 3)),
                           var_names=("a", "b", "c"))
_MODEL = SimModel(kind="linear")


@pytest.mark.parametrize("call", [
    lambda: pairwise_scan(_MATRIX, method="bogus"),
    lambda: diff_scan(_MATRIX, _MATRIX, method="bogus"),
    lambda: run_replicates(_MODEL, 20, 2, method="bogus"),
    lambda: power_experiment(_MODEL, 20, 2, method="bogus"),
    lambda: power_experiment(_MODEL, 20, 2, method="bogus", statistic=abs_pearson),
    lambda: default_statistic(engine.PartitionConfig(), "bogus")(
        PairedSample(x=[1.0, 2.0, 3.0], y=[3.0, 1.0, 2.0])),
], ids=["pairwise_scan", "diff_scan", "run_replicates", "power_experiment",
        "power_experiment_custom_statistic", "default_statistic"])
def test_unknown_method_names_the_methods(call):
    with pytest.raises(ValueError, match=re.escape(str(METHODS))):
        call()
