import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from ptdep import kernels, simulate
from ptdep.ebayes import ShiftSearchConfig
from ptdep.engine import PartitionConfig
from ptdep.errors import DegenerateSample
from ptdep.simulate import (
    SimModel,
    THETA_UNIT,
    empirical_quantile,
    generate,
    permutation_null,
    power_experiment,
    replicate_experiment,
    run_replicates,
)
from ptdep.transforms import PairedSample, to_unit_interval

from oracles import default_statistic, direct_test, looped_null, looped_power, quantile_type1

_LINEAR = SimModel(kind="linear")
# Each call that draws random numbers, with settings it accepts.
_DRAWS = {generate: {"model": _LINEAR, "n": 10, "seed": 0},
          run_replicates: {"model": _LINEAR, "n": 10, "reps": 2, "seed": 0},
          power_experiment: {"model": _LINEAR, "n": 10, "reps": 2, "seed": 0},
          permutation_null: {"sample": generate(_LINEAR, 10, 0), "seed": 0}}


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

    @pytest.mark.parametrize("settings, message", [
        ({"sigma": -0.5}, "sigma must be >= 0, got -0.5"),
        ({"sigma": True}, "sigma must be a number, got True"),
        ({"sigma": False}, "sigma must be a number, got False"),
        ({"sigma": np.True_}, "sigma must be a number, got np.True_"),
        ({"sigma": "2"}, "sigma must be a number, got '2'"),
        ({"checker_pattern": "diagonal"},
         "checker_pattern must be one of ('verbatim', 'balanced'), got 'diagonal'"),
    ])
    def test_bad_sigma_or_pattern_rejected(self, settings, message):
        with pytest.raises(ValueError) as err:
            SimModel(kind="checkerboard", **settings)
        assert str(err.value) == message

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_sample_rejected(self, n):
        with pytest.raises(ValueError) as err:
            generate(SimModel(kind="linear"), n, seed=0)
        assert str(err.value) == f"n must be >= 1, got {n}"

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        # a NaN sigma passes sigma < 0 and would drop the noise
        with pytest.raises(ValueError, match="sigma must be finite"):
            SimModel(kind="linear", sigma=sigma)

    @pytest.mark.parametrize("field", ["x_range", "theta_range"])
    @pytest.mark.parametrize("bounds", [(-1e308, 1e308), (-np.inf, 1.0), (0.0, np.inf),
                                        (-np.inf, np.inf)])
    def test_range_with_non_finite_end_or_width_rejected(self, field, bounds):
        with pytest.raises(ValueError, match=f"{field} must have finite ends and width"):
            SimModel(kind="checkerboard", **{field: bounds})

    @pytest.mark.parametrize("field", ["x_range", "theta_range"])
    def test_nan_range_end_rejected(self, field):
        with pytest.raises(ValueError) as err:
            SimModel(kind="linear", **{field: (np.nan, 1.0)})
        assert str(err.value) == f"{field} must satisfy lo < hi, got (nan, 1.0)"

    @pytest.mark.parametrize("field", ["x_range", "theta_range"])
    @pytest.mark.parametrize("bounds", [(2.0, 1.0), (1.0, 1.0)])
    def test_unordered_range_rejected_with_its_value(self, field, bounds):
        with pytest.raises(ValueError) as err:
            SimModel(kind="linear", **{field: bounds})
        assert str(err.value) == f"{field} must satisfy lo < hi, got ({bounds[0]}, {bounds[1]})"


    @pytest.mark.parametrize("kind, field", [("linear", "x_range"),
                                             ("checkerboard", "theta_range")])
    def test_range_given_as_a_list_is_kept_as_a_tuple(self, kind, field):
        listed = SimModel(kind=kind, **{field: [0.0, 1.0]})
        paired = SimModel(kind=kind, **{field: (0.0, 1.0)})
        assert getattr(listed, field) == (0.0, 1.0)
        assert listed == paired and hash(listed) == hash(paired)
        assert len({listed, paired}) == 1

    @pytest.mark.parametrize("kind", ["circular", "checkerboard", "independent"])
    def test_x_range_refused_where_x_is_not_uniform(self, kind):
        with pytest.raises(ValueError, match=f"x_range does not apply to the {kind} model"):
            SimModel(kind=kind, x_range=(-1.0, 1.0))

    @pytest.mark.parametrize("kind, x_range", [
        ("linear", (-2.0, 2.0)), ("parabolic", (-2.0, 2.0)), ("sinusoidal", (-5.0, 5.0)),
        ("circular", None), ("checkerboard", None), ("independent", None),
    ])
    def test_effective_x_range_only_where_x_is_uniform(self, kind, x_range):
        assert SimModel(kind=kind).effective_x_range == x_range
        if x_range is not None:
            assert SimModel(kind=kind, x_range=(0.0, 1.0)).effective_x_range == (0.0, 1.0)

    @pytest.mark.parametrize("kind", ["linear", "parabolic", "sinusoidal", "circular",
                                      "independent"])
    @pytest.mark.parametrize("field, value", [("theta_range", THETA_UNIT),
                                              ("checker_pattern", "balanced")])
    def test_checkerboard_parameters_refused_elsewhere(self, kind, field, value):
        with pytest.raises(ValueError, match=f"{field} does not apply to the {kind} model"):
            SimModel(kind=kind, **{field: value})

    def test_independent_keeps_sigma(self):
        assert SimModel(kind="independent", sigma=0.5).sigma == 0.5

    @pytest.mark.parametrize("model, drawn", [
        (SimModel(kind="circular", sigma=1e308), "sigma=1e+308"),
        (SimModel(kind="checkerboard", theta_range=(0.0, 1e308)),
         "sigma=2.0 and theta_range=(0.0, 1e+308)"),
        (SimModel(kind="sinusoidal", sigma=1e308), "sigma=1e+308 and x_range=(-5.0, 5.0)"),
    ])
    def test_overflow_names_only_the_parameters_drawn_from(self, model, drawn):
        message = f"the {model.kind} model gives non-finite values at {drawn}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            generate(model, 50, seed=0)


@pytest.mark.parametrize("kind, pattern", [("linear", "verbatim"), ("parabolic", "verbatim"),
                                           ("sinusoidal", "verbatim"), ("circular", "verbatim"),
                                           ("checkerboard", "verbatim"),
                                           ("checkerboard", "balanced")])
def test_noiseless_sample_is_its_formula_bit_for_bit(kind, pattern):
    # the noise is each sample's last draw, and exactly +0.0 at sigma = 0
    n, seed = 200, 7
    extra = {"checker_pattern": pattern} if kind == "checkerboard" else {}
    got = generate(SimModel(kind=kind, sigma=0.0, **extra), n, seed)
    rng = np.random.default_rng(seed)
    if kind == "circular":
        t = rng.uniform(0.0, 2.0 * np.pi, n)
        x, y = 10.0 * np.cos(t), 10.0 * np.sin(t)
    elif kind == "checkerboard":
        i_x, u = rng.integers(0, 4, n), rng.integers(0, 2, n)
        if pattern == "balanced":
            i_y = (i_x % 2) + 2 * u
        else:
            i_y = np.where(i_x == 0, 0, 2 * u % np.maximum(i_x, 1))
        t = rng.uniform(0.0, 2.0 * np.pi, n)
        x, y = 10.0 * (i_x + t), 10.0 * (i_y + t)
    else:
        x = rng.uniform(*SimModel(kind=kind).effective_x_range, n)
        y = {"linear": 2.0 * x / 3.0, "parabolic": 2.0 * x * x / 3.0,
             "sinusoidal": 2.0 * np.sin(x)}[kind]
    assert got.x.tobytes() == x.tobytes() and got.y.tobytes() == y.tobytes()


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

    @pytest.mark.parametrize("call", [run_replicates, replicate_experiment, power_experiment])
    @pytest.mark.parametrize("reps", [0, -1])
    def test_no_replicates_rejected(self, call, reps):
        with pytest.raises(ValueError) as err:
            call(SimModel(kind="linear"), 20, reps)
        assert str(err.value) == f"reps must be >= 1, got {reps}"

    @pytest.mark.parametrize("value", [True, 2.5, 3.0, "3", None])
    @pytest.mark.parametrize("call, name", [
        (generate, "n"), (generate, "seed"), (run_replicates, "reps"),
        (run_replicates, "seed"), (power_experiment, "reps"), (power_experiment, "seed"),
        (permutation_null, "n_perm"), (permutation_null, "seed")])
    def test_count_or_seed_not_an_integer_rejected(self, call, name, value):
        # a bool would run as the 1 it equals; a float or text would fail inside numpy
        with pytest.raises(ValueError) as err:
            call(**{**_DRAWS[call], name: value})
        assert str(err.value) == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize("call", list(_DRAWS))
    def test_negative_seed_rejected(self, call):
        with pytest.raises(ValueError) as err:
            call(**{**_DRAWS[call], "seed": -1})
        assert str(err.value) == "seed must be >= 0, got -1"

    def test_replicate_seeds_are_base_plus_r(self):
        results = run_replicates(SimModel(kind="independent"), n=40, reps=3, seed=100)
        expected = [generate(SimModel(kind="independent"), 40, seed=100 + r) for r in range(3)]
        for res, sample in zip(results, expected):
            assert res.log_bf == direct_test(sample).log_bf


class TestEmpiricalQuantile:
    def test_matches_order_statistic_definition(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=500)
        assert empirical_quantile(values, 0.95) == quantile_type1(values, 0.95)

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5, np.nan])
    def test_p_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError) as err:
            empirical_quantile(np.arange(5.0), p)
        assert str(err.value) == f"p must lie in (0, 1], got {p}"

    @pytest.mark.parametrize("p", ["0.5", None])
    def test_p_not_a_number_rejected(self, p):
        with pytest.raises(ValueError) as err:
            empirical_quantile(np.arange(5.0), p)
        assert str(err.value) == f"p must be a number, got {p!r}"

    def test_500_perm_level_05_is_475th(self):
        values = np.arange(1.0, 501.0)
        rng = np.random.default_rng(1)
        rng.shuffle(values)
        assert empirical_quantile(values, 0.95) == 475.0


class TestPermutationNull:
    def test_marginals_preserved(self, monkeypatch):
        rng = np.random.default_rng(2)
        sample = PairedSample(x=rng.normal(size=30), y=rng.normal(size=30))
        rows, batch = [], kernels.logbf_batch

        def spy(u, v, *args):
            rows.extend(zip(*np.broadcast_arrays(np.atleast_2d(u), np.atleast_2d(v))))
            return batch(u, v, *args)

        monkeypatch.setattr(kernels, "logbf_batch", spy)
        permutation_null(sample, n_perm=7, seed=0)
        # the kernel takes each margin's codes, and a re-pairing moves y's codes
        u, v = (kernels.half_codes(to_unit_interval(m), 20) for m in (sample.x, sample.y))
        assert len(rows) == 7
        for x_row, y_row in rows:
            assert x_row.tobytes() == u.tobytes()
            assert np.sort(y_row).tobytes() == np.sort(v).tobytes()
        assert any(y_row.tobytes() != v.tobytes() for _, y_row in rows)

    def test_threshold_is_type1_quantile(self):
        rng = np.random.default_rng(3)
        sample = PairedSample(x=rng.normal(size=50), y=rng.normal(size=50))
        null = permutation_null(sample, n_perm=100, seed=1, level=0.05)
        assert null.threshold == quantile_type1(null.null_stats, 0.95)

    def test_coverage_on_independent_data(self):
        # derived self-consistency check: the observed p_dependent should fall
        # at or below the 0.95 null quantile about 95% of the time
        rng = np.random.default_rng(4)
        below = 0
        trials = 200
        for t in range(trials):
            x = rng.normal(size=40)
            y = rng.normal(size=40)
            sample = PairedSample(x=x, y=y)
            null = permutation_null(sample, n_perm=199, seed=1000 + t)
            if direct_test(sample).p_dependent <= null.threshold:
                below += 1
        assert 0.90 <= below / trials <= 0.99

    @pytest.mark.parametrize("level", [1.5, 0.0, 1.0, np.nan])
    def test_level_outside_unit_interval_rejected_with_its_value(self, level):
        with pytest.raises(ValueError) as err:
            permutation_null(PairedSample(x=[1.0, 2.0], y=[2.0, 1.0]), level=level)
        assert str(err.value) == f"level must lie in (0, 1), got {level}"

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        sample = PairedSample(x=rng.normal(size=30), y=rng.normal(size=30))
        a = permutation_null(sample, n_perm=50, seed=9)
        b = permutation_null(sample, n_perm=50, seed=9)
        assert np.array_equal(a.null_stats, b.null_stats)

    # (model kind, seed, SHA-256 of null_stats, threshold) of the benchmark's
    # calib inputs: generate(SimModel(kind), 150, seed) re-paired 200 times
    _CALIB = [
        ("linear", 13000, "0502b08af445610f5987e49c63a8ffd558a0996b342130bb65d3b618d34001ea",
         "0x1.45f1ba1df7068p-1"),
        ("parabolic", 13001, "6c038baef7c55b017ba4caed5d23658d46c97ab577c7063c60bc370d115ab32e",
         "0x1.682acf58177a6p-1"),
        ("sinusoidal", 13002, "7b78a4853b5b706bc6e4c2ddcc23559dde68eb29c881548f587bc0f0cac2be98",
         "0x1.4d9683005d67dp-1"),
        ("circular", 13003, "e30447dd6cf90ed29c315d04ba5fc32fca4b1e831bd3b2138278c4a9689c3765",
         "0x1.34f12a1dd1bbdp-1"),
        ("checkerboard", 13004, "3a2582ed8dab0c6e7890b84759276afdb8275ad143133208e29127c5c74f22e9",
         "0x1.7a8647de64638p-1"),
        ("independent", 13005, "274369a427a9c2552abf2c5bd1431b1217314009a594984d813e511cd6d1abcb",
         "0x1.7c110eebcf035p-1"),
    ]

    @pytest.mark.parametrize("kind, seed, digest, threshold", _CALIB, ids=[c[0] for c in _CALIB])
    def test_benchmark_calib_null_is_pinned(self, kind, seed, digest, threshold):
        # pinned across commits; captured with numpy 2.4.6, as the goldens are
        null = permutation_null(generate(SimModel(kind=kind), 150, seed), n_perm=200)
        assert hashlib.sha256(null.null_stats.tobytes()).hexdigest() == digest
        assert null.threshold.hex() == threshold


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

    def test_permutation_threshold_holds_the_false_positive_rate(self):
        report = power_experiment(SimModel(kind="linear", sigma=1.0), n=60, reps=30, seed=2,
                                  threshold_source="permutation_quantile", n_perm=99)
        assert report.method == "basic"
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

    @pytest.mark.parametrize("source", ["posterior_0.5", "permutation_quantile"])
    @pytest.mark.parametrize("bad, message", [
        ({"level": 7.0}, "level must lie in (0, 1)"),
        ({"level": 0.0}, "level must lie in (0, 1)"),
        ({"n_perm": -5}, "n_perm must be >= 1"),
        ({"n_perm": 0, "level": 7.0}, "n_perm must be >= 1"),
    ])
    def test_null_settings_checked_before_any_replicate(self, source, bad, message, monkeypatch):
        # the posterior threshold reads neither, so one given is refused, whatever its value
        if source == "posterior_0.5":
            refused = "n_perm" if "n_perm" in bad else "level"
            message = f"{refused} applies only with threshold_source 'permutation_quantile'"

        def drawn(*args):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(simulate, "generate", drawn)
        with pytest.raises(ValueError, match=re.escape(message)):
            power_experiment(SimModel(kind="linear"), n=20, reps=2, threshold_source=source,
                             **bad)


class TestBatchedNull:
    @pytest.mark.parametrize("n", [2, 3, 150])
    def test_equals_looped_default_statistic(self, n):
        rng = np.random.default_rng(40 + n)
        x = rng.normal(size=n)
        sample = PairedSample(x=x, y=x + rng.normal(size=n))
        cfg = PartitionConfig(c=2.0, prior_odds=1.5)
        batched = permutation_null(sample, n_perm=120, cfg=cfg, seed=3)
        looped = looped_null(sample, 120, np.random.default_rng(3), default_statistic(cfg))
        assert batched.null_stats.tobytes() == looped.tobytes()
        assert batched.threshold == quantile_type1(looped, 0.95)

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

        # both nulls fill whole kernel calls; the null array itself grows by
        # 14.4 KB between them, and nothing else may
        full = 2 * kernels.rows_per_call(sample.n)
        small, large = peak(full), peak(full + 1800)
        assert large <= small + 32 * 1024

    def test_power_permutation_threshold_matches_looped_route(self):
        m = SimModel(kind="linear", sigma=2.0)
        cfg = PartitionConfig()
        kwargs = dict(n=40, reps=4, seed=5, threshold_source="permutation_quantile", n_perm=30)
        batched = power_experiment(m, cfg=cfg, **kwargs)
        assert (batched.tpr, batched.fpr, batched.threshold) == looped_power(m, cfg=cfg, **kwargs)


class TestBatchedReplicates:
    @pytest.mark.parametrize("source", ["posterior_0.5", "permutation_quantile"])
    @pytest.mark.parametrize("method", ["basic", "ebayes"])
    def test_power_equals_looped_route(self, method, source):
        cfg = PartitionConfig(c=2.0)
        scfg = ShiftSearchConfig(axis_policy="xy") if method == "ebayes" else None
        null = {"n_perm": 25} if source == "permutation_quantile" else {}
        kwargs = dict(n=40, reps=7, seed=9, threshold_source=source, **null)
        for kind in ("circular", "independent"):
            batched = power_experiment(SimModel(kind=kind), cfg=cfg, method=method, scfg=scfg,
                                       **kwargs)
            assert (batched.tpr, batched.fpr, batched.threshold) == \
                looped_power(SimModel(kind=kind), cfg=cfg, method=method, scfg=scfg, **kwargs)

    def test_working_set_does_not_grow_with_reps(self):
        m = SimModel(kind="circular")

        def working_set(reps):
            run_replicates(m, 300, reps)  # warm caches
            tracemalloc.start()
            try:
                results = run_replicates(m, 300, reps)
                current, peak = tracemalloc.get_traced_memory()
                return peak - current  # above the results the call returns
            finally:
                del results
                tracemalloc.stop()

        full = 2 * kernels.rows_per_call(300)
        assert working_set(2000) <= working_set(full) + 32 * 1024
