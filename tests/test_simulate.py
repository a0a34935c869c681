import tracemalloc

import numpy as np
import pytest

from ptdep.engine import PartitionConfig
from ptdep.errors import DegenerateSample
from ptdep.simulate import (
    SimModel,
    THETA_UNIT,
    abs_pearson,
    default_statistic,
    empirical_quantile,
    generate,
    permutation_null,
    power_experiment,
    replicate_experiment,
    run_replicates,
)
from ptdep.transforms import PairedSample

from oracles import quantile_type1


class TestGenerate:
    def test_linear_noiseless(self):
        s = generate(SimModel(kind="linear", sigma=0.0), 100, seed=0)
        np.testing.assert_allclose(s.y, 2.0 * s.x / 3.0, atol=1e-12)

    def test_parabolic_noiseless(self):
        s = generate(SimModel(kind="parabolic", sigma=0.0), 100, seed=0)
        np.testing.assert_allclose(s.y, 2.0 * s.x**2 / 3.0, atol=1e-12)

    def test_sinusoidal_noiseless(self):
        s = generate(SimModel(kind="sinusoidal", sigma=0.0), 100, seed=0)
        np.testing.assert_allclose(s.y, 2.0 * np.sin(s.x), atol=1e-12)

    def test_circular_noiseless_on_circle(self):
        s = generate(SimModel(kind="circular", sigma=0.0), 200, seed=1)
        np.testing.assert_allclose(np.hypot(s.x, s.y), 10.0, atol=1e-12)

    def test_checkerboard_structure(self):
        s = generate(SimModel(kind="checkerboard", sigma=0.0, theta_range=THETA_UNIT), 500, seed=2)
        # x = 10(i_x + t), so i_x recovers by integer division
        i_x = np.floor(s.x / 10.0).astype(int)
        i_y = np.floor(s.y / 10.0).astype(int)
        assert set(np.unique(i_x)) <= {0, 1, 2, 3}
        # i_y = (2u) mod i_x with mod-by-0 = 0: only 0, or 2 when i_x = 3
        assert set(np.unique(i_y)) <= {0, 2}
        assert np.all(i_y[i_x != 3] == 0)

    def test_shared_offset_links_axes(self):
        s = generate(SimModel(kind="checkerboard", sigma=0.0, theta_range=THETA_UNIT), 300, seed=3)
        frac_x = s.x / 10.0 - np.floor(s.x / 10.0)
        frac_y = s.y / 10.0 - np.floor(s.y / 10.0)
        np.testing.assert_allclose(frac_x, frac_y, atol=1e-9)

    def test_independent_margins(self):
        s = generate(SimModel(kind="independent"), 5000, seed=4)
        assert abs(np.mean(s.x)) < 0.1
        assert abs(np.std(s.x) - 1.0) < 0.1

    def test_same_seed_same_sample(self):
        m = SimModel(kind="circular", sigma=2.0)
        a = generate(m, 50, seed=42)
        b = generate(m, 50, seed=42)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_different_seed_differs(self):
        m = SimModel(kind="linear", sigma=2.0)
        a = generate(m, 50, seed=0)
        b = generate(m, 50, seed=1)
        assert not np.array_equal(a.x, b.x)

    def test_x_range_respected(self):
        m = SimModel(kind="linear", sigma=0.0, x_range=(2.0, 3.0))
        s = generate(m, 200, seed=5)
        assert s.x.min() >= 2.0 and s.x.max() <= 3.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SimModel(kind="spiral")


class TestReplicates:
    def test_single_point_replicates_all_half(self):
        summary = replicate_experiment(SimModel(kind="linear"), n=1, reps=20, seed=0)
        assert summary.p5 == 0.5
        assert summary.p50 == 0.5
        assert summary.p95 == 0.5

    def test_percentiles_ordered(self):
        summary = replicate_experiment(SimModel(kind="circular"), n=100, reps=30, seed=1)
        assert summary.p5 <= summary.p25 <= summary.p50 <= summary.p75 <= summary.p95

    def test_independence_recognised_at_n_1000(self):
        summary = replicate_experiment(SimModel(kind="independent"), n=1000, reps=100, seed=2)
        assert 1.0 - summary.p50 >= 0.95  # median p(independence)

    def test_replicate_seeds_are_base_plus_r(self):
        results = run_replicates(SimModel(kind="independent"), n=40, reps=3, seed=100)
        expected = [generate(SimModel(kind="independent"), 40, seed=100 + r) for r in range(3)]
        from ptdep.engine import test_dependence

        for res, sample in zip(results, expected):
            assert res.log_bf == test_dependence(sample).log_bf

    def test_workers_preserve_order(self):
        m = SimModel(kind="linear")
        seq = run_replicates(m, n=60, reps=8, seed=7, workers=1)
        par = run_replicates(m, n=60, reps=8, seed=7, workers=4)
        assert [r.log_bf for r in seq] == [r.log_bf for r in par]


class TestEmpiricalQuantile:
    def test_matches_order_statistic_definition(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=500)
        assert empirical_quantile(values, 0.95) == quantile_type1(values, 0.95)

    def test_500_perm_level_05_is_475th(self):
        values = np.arange(1.0, 501.0)
        rng = np.random.default_rng(1)
        rng.shuffle(values)
        assert empirical_quantile(values, 0.95) == 475.0


class TestPermutationNull:
    def test_marginals_preserved(self):
        rng = np.random.default_rng(2)
        sample = PairedSample(x=rng.normal(size=30), y=rng.normal(size=30))
        seen = {}

        def spy(s):
            seen["x"] = s.x
            seen["y"] = s.y
            return 0.0

        permutation_null(sample, n_perm=1, seed=0, statistic=spy)
        assert np.array_equal(np.sort(seen["x"]), np.sort(sample.x))
        assert np.array_equal(np.sort(seen["y"]), np.sort(sample.y))

    def test_threshold_is_type1_quantile(self):
        rng = np.random.default_rng(3)
        sample = PairedSample(x=rng.normal(size=50), y=rng.normal(size=50))
        null = permutation_null(sample, n_perm=100, seed=1, statistic=abs_pearson, level=0.05)
        assert null.threshold == quantile_type1(null.null_stats, 0.95)

    def test_coverage_on_independent_data(self):
        # derived self-consistency check: the original statistic should fall
        # below the 0.95 null quantile about 95% of the time
        rng = np.random.default_rng(4)
        below = 0
        trials = 200
        for t in range(trials):
            x = rng.normal(size=40)
            y = rng.normal(size=40)
            sample = PairedSample(x=x, y=y)
            null = permutation_null(sample, n_perm=199, seed=1000 + t, statistic=abs_pearson)
            if abs_pearson(sample) <= null.threshold:
                below += 1
        assert 0.90 <= below / trials <= 0.99

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        sample = PairedSample(x=rng.normal(size=30), y=rng.normal(size=30))
        a = permutation_null(sample, n_perm=50, seed=9, statistic=abs_pearson)
        b = permutation_null(sample, n_perm=50, seed=9, statistic=abs_pearson)
        assert np.array_equal(a.null_stats, b.null_stats)


class TestPowerExperiment:
    def test_posterior_threshold_on_circular(self):
        report = power_experiment(
            SimModel(kind="circular", sigma=2.0), n=150, reps=40, seed=0
        )
        assert report.tpr >= 0.9
        assert report.threshold == 0.5
        assert report.threshold_source == "posterior_0.5"

    def test_fpr_near_nominal_residual(self):
        report = power_experiment(
            SimModel(kind="independent"), n=150, reps=100, seed=1
        )
        # the basic test's false positive rate at the 0.5 cut sits around 0.13
        assert 0.05 <= report.fpr <= 0.25

    def test_pearson_plugin_with_permutation_threshold(self):
        report = power_experiment(
            SimModel(kind="linear", sigma=1.0),
            n=60,
            reps=30,
            seed=2,
            statistic=abs_pearson,
            threshold_source="permutation_quantile",
            n_perm=99,
        )
        assert report.method == "custom"
        assert report.tpr >= 0.9
        assert report.fpr <= 0.2

    def test_deterministic(self):
        m = SimModel(kind="linear", sigma=2.0)
        a = power_experiment(m, n=80, reps=20, seed=3)
        b = power_experiment(m, n=80, reps=20, seed=3)
        assert (a.tpr, a.fpr) == (b.tpr, b.fpr)

    def test_invalid_threshold_source(self):
        with pytest.raises(ValueError):
            power_experiment(SimModel(kind="linear"), n=10, reps=2, threshold_source="magic")


class TestBatchedNull:
    @pytest.mark.parametrize("n", [2, 3, 150])
    def test_equals_looped_default_statistic(self, n):
        rng = np.random.default_rng(40 + n)
        x = rng.normal(size=n)
        sample = PairedSample(x=x, y=x + rng.normal(size=n))
        cfg = PartitionConfig(c=2.0, prior_odds=1.5)
        batched = permutation_null(sample, n_perm=120, cfg=cfg, seed=3)
        looped = permutation_null(sample, n_perm=120, cfg=cfg, seed=3,
                                  statistic=default_statistic(cfg))
        assert batched.null_stats.tobytes() == looped.null_stats.tobytes()
        assert batched.threshold == looped.threshold

    def test_single_point_is_prior(self):
        null = permutation_null(PairedSample(x=[1.0], y=[2.0]), n_perm=5)
        assert null.null_stats.tolist() == [0.5] * 5

    def test_degenerate_propagates(self):
        with pytest.raises(DegenerateSample):
            permutation_null(PairedSample(x=[1.0, 2.0, 3.0], y=[4.0, 4.0, 4.0]), n_perm=5)

    def test_working_set_does_not_grow_with_n_perm(self):
        rng = np.random.default_rng(41)
        sample = PairedSample(x=rng.normal(size=150), y=rng.normal(size=150))

        def peak(n_perm):
            permutation_null(sample, n_perm=n_perm, seed=1)  # warm caches
            tracemalloc.start()
            try:
                permutation_null(sample, n_perm=n_perm, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(200), peak(2000)
        # the null array itself grows by 14.4 KB; nothing else may
        assert large <= small + 32 * 1024

    def test_power_permutation_threshold_matches_statistic_route(self):
        m = SimModel(kind="linear", sigma=2.0)
        cfg = PartitionConfig()
        kwargs = dict(n=40, reps=4, cfg=cfg, seed=5,
                      threshold_source="permutation_quantile", n_perm=30)
        batched = power_experiment(m, **kwargs)
        looped = power_experiment(m, statistic=default_statistic(cfg), **kwargs)
        assert (batched.tpr, batched.fpr, batched.threshold) == \
            (looped.tpr, looped.fpr, looped.threshold)
