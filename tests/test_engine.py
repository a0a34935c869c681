import dataclasses
import hashlib
import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betaln, gammaln

from ptdep import engine, kernels
from ptdep.diffscan import ExpressionMatrix, pairwise_scan
from ptdep.ebayes import METHODS
from ptdep.engine import PartitionConfig, log_cell_evidence, posterior_dependence
from ptdep.errors import DegenerateSample
from ptdep.transforms import PairedSample, to_unit_interval

from oracles import (
    beta_binomial_quadrature,
    build_count_tree,
    direct_test,
    exact_log_cell_evidence,
    log_bayes_factor,
    log_marglik_1d,
)


def _mapped_tree(sample, depth_cap):
    """The oracle tree of a sample's margins, each mapped to the unit interval."""
    return build_count_tree(to_unit_interval(sample.x), to_unit_interval(sample.y), depth_cap)


class TestLogCellEvidence:
    def test_empty_and_single_cells_are_exactly_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = float(rng.uniform(0.05, 500.0))
            assert log_cell_evidence((0, 0, 0, 0), a) == 0.0
            counts = [0, 0, 0, 0]
            counts[rng.integers(0, 4)] = 1
            assert log_cell_evidence(tuple(counts), a) == 0.0

    def test_single_point_cancellation_in_raw_formula(self):
        # with one point the Gamma terms cancel analytically
        for q in range(4):
            counts = [0, 0, 0, 0]
            counts[q] = 1
            for a in (0.3, 1.0, 5.0, 80.0, 500.0):
                raw = kernels.cell_log_evidence(*counts, a)
                assert abs(raw) <= 1e-12
            # very large a: cancellation is limited by lgamma rounding
            assert abs(kernels.cell_log_evidence(*counts, 2000.0)) <= 1e-10

    def test_frozen_oracle_values(self):
        # pinned from the exact big-integer factorial oracle
        assert log_cell_evidence((2, 0, 0, 2), 5.0) == pytest.approx(
            -0.26726468071952536, abs=1e-12
        )
        assert log_cell_evidence((5, 5, 5, 5), 1.0) == pytest.approx(
            1.0443483138310408, abs=1e-12
        )

    # SHA-256 of the 768 floats over every count 0..3 in each quadrant at a = 0.5, 5
    # and 80, which take both routes of the cell term; pinned across commits.
    _GRID_DIGEST = "31dcad56625fe991e1dd3713f5059a424f0fb4d9cd74deb7b772c0f5bf6b7d67"

    def test_pinned_floats_on_a_grid_of_counts(self):
        for _ in range(2):  # the second pass reads the kept tables
            got = [log_cell_evidence(counts, a) for a in (0.5, 5.0, 80.0)
                   for counts in itertools.product(range(4), repeat=4)]
            assert hashlib.sha256(np.array(got).tobytes()).hexdigest() == self._GRID_DIGEST
        assert log_cell_evidence((3, 0, 1, 2), 5.0) == -0.19987309059954583
        assert log_cell_evidence((40, 1, 2, 37), 0.5) == -40.53081253709464
        assert log_cell_evidence((1000, 3, 0, 999), 80.0) == -1019.7242390996357

    def test_matches_exact_oracle_on_random_counts(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            counts = tuple(int(c) for c in rng.integers(0, 11, 4))
            a = int(rng.integers(1, 21))
            got = log_cell_evidence(counts, float(a))
            want = exact_log_cell_evidence(counts, a)
            assert got == pytest.approx(want, abs=1e-10)

    def test_symmetries(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n0, n1, n2, n3 = (int(c) for c in rng.integers(0, 30, 4))
            a = float(rng.uniform(0.1, 50.0))
            base = log_cell_evidence((n0, n1, n2, n3), a)
            transpose = log_cell_evidence((n0, n2, n1, n3), a)
            mirror_h = log_cell_evidence((n1, n0, n3, n2), a)
            mirror_v = log_cell_evidence((n2, n3, n0, n1), a)
            assert base == pytest.approx(transpose, abs=1e-12)
            assert base == pytest.approx(mirror_h, abs=1e-12)
            assert base == pytest.approx(mirror_v, abs=1e-12)

    def test_assembles_from_beta_function_pieces(self):
        # independent-margins factor minus joint factor, via betaln/gammaln
        rng = np.random.default_rng(3)
        for _ in range(50):
            n0, n1, n2, n3 = (int(c) for c in rng.integers(0, 20, 4))
            if n0 + n1 + n2 + n3 <= 1:
                continue
            a = float(rng.uniform(0.2, 30.0))
            x_factor = betaln(n0 + n2 + 2 * a, n1 + n3 + 2 * a) - betaln(2 * a, 2 * a)
            y_factor = betaln(n0 + n1 + 2 * a, n2 + n3 + 2 * a) - betaln(2 * a, 2 * a)
            joint = (
                gammaln(n0 + a) + gammaln(n1 + a) + gammaln(n2 + a) + gammaln(n3 + a)
                - gammaln(n0 + n1 + n2 + n3 + 4 * a)
            ) - (4 * gammaln(a) - gammaln(4 * a))
            want = x_factor + y_factor - joint
            assert log_cell_evidence((n0, n1, n2, n3), a) == pytest.approx(want, abs=1e-10)

    def test_array_call_equals_scalar_calls_bit_for_bit(self):
        # A call on many small cells looks its log-gamma values up in
        # tables, while one cell of three or more points alone evaluates
        # them directly. A call on the three large cells evaluates directly,
        # while the cell of one point alone uses tables.
        rng = np.random.default_rng(4)
        small = rng.integers(0, 12, (4, 300))
        large = np.array([[10**6, 3, 0], [0, 2, 5000], [0, 0, 1], [1, 70000, 2]])
        for counts in (small, large):
            for a in (0.5, 5.0, 245.0):
                got = kernels.cell_log_evidence(*counts, a)
                want = [kernels.cell_log_evidence(*(int(k) for k in cell), a) for cell in counts.T]
                assert got.tobytes() == np.array(want).tobytes()

    def test_million_point_cell_matches_mpmath(self):
        counts, a = (10**6, 0, 0, 1), 5.0
        n0, n1, n2, n3 = counts
        with mpmath.workdps(50):
            def lg(k, scale):
                return mpmath.loggamma(k + scale * mpmath.mpf(a))

            want = (lg(n0 + n2, 2) + lg(n1 + n3, 2) + lg(n0 + n1, 2) + lg(n2 + n3, 2)
                    - lg(n0 + n1 + n2 + n3, 4) - lg(n0, 1) - lg(n1, 1) - lg(n2, 1) - lg(n3, 1)
                    + lg(0, 4) + 4 * lg(0, 1) - 4 * lg(0, 2))
        assert log_cell_evidence(counts, a) == pytest.approx(float(want), rel=1e-9)

    @pytest.mark.parametrize("counts, a, message", [
        ((-1, 0, 0, 0), 5.0, "counts must be nonnegative, got (-1, 0, 0, 0)"),
        ((1, 1, 1, 1), 0.0, "a must be positive, got 0.0"),
        ((2, 1, 0, 3), float("inf"), "a must be finite, got inf"),
        ((2.7, 0, 0, 1.2), 5.0, "counts must be whole numbers, got (2.7, 0, 0, 1.2)"),
        # a bool or a non-number, refused as PartitionConfig refuses it for c
        ((2, 0, 0, 2), True, "a must be a number, got True"),
        ((2, 0, 0, 2), "5", "a must be a number, got '5'"),
        ((True, 0, 0, True), 5.0, "counts must be whole numbers, got (True, 0, 0, True)"),
        (("2", 0, 0, 2), 5.0, "counts must be whole numbers, got ('2', 0, 0, 2)"),
        # a count that no float holds, which the kernel could not score
        ((10**400, 0, 0, 0), 5.0, f"counts must be finite, got {10**400}"),
    ])
    def test_validation(self, counts, a, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            log_cell_evidence(counts, a)

    def test_a_of_any_real_type_is_scored_in_double_precision(self):
        want = log_cell_evidence((2, 0, 0, 2), 5.0)
        for a in (5, np.float32(5.0), np.int64(5)):
            assert log_cell_evidence((2, 0, 0, 2), a) == want


class TestOneDimensionalHelper:
    """The Beta-ratio building block matches direct integration junction-wise."""

    def test_against_quadrature(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n_l, n_r = (int(c) for c in rng.integers(0, 8, 2))
            a_l, a_r = rng.uniform(0.5, 15.0, 2)
            direct = log_marglik_1d([(n_l, n_r)], [(a_l, a_r)])
            integrated = beta_binomial_quadrature(n_l, n_r, a_l, a_r)
            assert direct == pytest.approx(integrated, abs=1e-9)

    def test_product_over_junctions(self):
        cells = [(3, 2), (1, 2), (2, 0)]
        alphas = [(5.0, 5.0), (20.0, 20.0), (20.0, 20.0)]
        total = log_marglik_1d(cells, alphas)
        parts = sum(log_marglik_1d([c], [al]) for c, al in zip(cells, alphas))
        assert total == pytest.approx(parts, abs=1e-12)


class TestLogBayesFactor:
    def test_empty_tree(self):
        empty = build_count_tree(np.array([0.4]), np.array([0.6]), 20)
        lb, levels = log_bayes_factor(empty, 5.0)
        assert lb == 0.0
        assert levels.size == 0

    def test_single_root_cell(self):
        sample = PairedSample(x=[1.0, 2.0], y=[5.0, 1.0])
        tree = _mapped_tree(sample, 20)
        lb, levels = log_bayes_factor(tree, 5.0)
        assert len(tree.cells) == 1
        assert lb == log_cell_evidence(tree.cells[0].counts, 5.0)
        assert levels[0] == lb

    def test_level_sums_equal_total(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 300))
            sample = PairedSample(x=rng.normal(size=n), y=rng.normal(size=n))
            tree = _mapped_tree(sample, 20)
            lb, levels = log_bayes_factor(tree, 5.0)
            assert lb == pytest.approx(levels.sum(), abs=1e-10 * max(1, levels.size))

    def test_root_split_uses_level_one_concentration(self):
        sample = PairedSample(x=[1.0, 2.0], y=[5.0, 1.0])
        tree = _mapped_tree(sample, 20)
        lb7, _ = log_bayes_factor(tree, 7.0)
        assert lb7 == log_cell_evidence(tree.cells[0].counts, 7.0)


class TestPosteriorDependence:
    def test_even_odds(self):
        assert posterior_dependence(0.0, 1.0) == 0.5

    def test_bf_three(self):
        assert posterior_dependence(math.log(3.0), 1.0) == pytest.approx(0.25, abs=1e-14)

    def test_saturation_no_overflow(self):
        assert posterior_dependence(200.0, 1.0) == pytest.approx(0.0, abs=1e-80)
        assert posterior_dependence(-200.0, 1.0) == pytest.approx(1.0, abs=1e-80)
        assert posterior_dependence(5000.0, 1.0) == 0.0
        assert posterior_dependence(-5000.0, 1.0) == 1.0

    def test_complementarity(self):
        rng = np.random.default_rng(6)
        for z in rng.uniform(-300, 300, 200):
            assert posterior_dependence(z, 1.0) + posterior_dependence(-z, 1.0) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_monotone_decreasing(self):
        zs = np.linspace(-30, 30, 301)
        ps = [posterior_dependence(z, 1.0) for z in zs]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_prior_odds(self):
        assert posterior_dependence(0.0, 3.0) == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("log_bf, prior_odds, message", [
        (math.nan, 1.0, "log_bf must be finite"), (-math.inf, 1.0, "log_bf must be finite"),
        (0.0, 0.0, "prior_odds must be positive, got 0.0"),
        (0.0, -1.0, "prior_odds must be positive, got -1.0"),
        (0.0, math.nan, "prior_odds must be finite, got nan"),
        (0.0, math.inf, "prior_odds must be finite, got inf"),
        (-1.0, True, "prior_odds must be a number, got True"),
    ])
    def test_non_finite_log_bf_or_non_positive_odds_rejected(self, log_bf, prior_odds, message):
        with pytest.raises(ValueError) as err:
            posterior_dependence(log_bf, prior_odds)
        assert str(err.value) == message

    @pytest.mark.parametrize("prior_odds", [True, np.True_, "5", math.inf, math.nan, 0.0, -1.0])
    def test_prior_odds_refused_as_the_config_refuses_it(self, prior_odds):
        with pytest.raises(ValueError) as want:
            PartitionConfig(prior_odds=prior_odds)
        with pytest.raises(ValueError) as got:
            posterior_dependence(-1.0, prior_odds)
        assert str(got.value) == str(want.value)


class TestTestDependence:
    def test_single_point_is_prior(self):
        res = engine.test_dependence(PairedSample(x=[3.7], y=[-1.0]))
        assert res.p_dependent == 0.5
        assert res.log_bf == 0.0
        assert res.level_contributions == ()

    def test_level_contribution_past_the_deepest_level_is_zero(self):
        rng = np.random.default_rng(8)
        res = engine.test_dependence(PairedSample(x=rng.normal(size=30), y=rng.normal(size=30)))
        depth = len(res.level_contributions)
        assert depth >= 2
        assert [res.level_contribution(k) for k in range(1, depth + 1)] == \
            list(res.level_contributions)
        assert res.level_contribution(depth + 1) == 0.0
        assert res.level_contribution(kernels.MAX_DEPTH_CAP + 1) == 0.0

    def test_coincident_pairs_truncate_finite(self):
        res = engine.test_dependence(PairedSample(x=[1.0, 1.0, 5.0], y=[2.0, 2.0, 7.0]))
        assert res.truncated
        assert math.isfinite(res.log_bf)
        assert len(res.level_contributions) == 20

    def test_matches_tree_reference_route(self):
        rng = np.random.default_rng(7)
        cfg = PartitionConfig()
        for _ in range(10):
            n = int(rng.integers(2, 400))
            sample = PairedSample(x=rng.normal(size=n), y=rng.normal(size=n))
            res = engine.test_dependence(sample, cfg)
            tree = _mapped_tree(sample, cfg.depth_cap)
            lb, levels = log_bayes_factor(tree, cfg.c)
            assert res.log_bf == pytest.approx(lb, abs=1e-9)
            assert res.truncated == tree.truncated
            assert len(res.level_contributions) == levels.size
            np.testing.assert_allclose(res.level_contributions, levels, atol=1e-9)

    def test_log_bf_is_exact_sum_of_levels(self):
        rng = np.random.default_rng(11)
        for n in (2, 50, 3000):
            x = rng.normal(size=n)
            res = engine.test_dependence(PairedSample(x=x, y=x + rng.normal(size=n)))
            assert res.log_bf == math.fsum(res.level_contributions)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(8)
        sample = PairedSample(x=rng.normal(size=200), y=rng.normal(size=200))
        fwd = engine.test_dependence(sample)
        rev = engine.test_dependence(PairedSample(x=sample.y, y=sample.x))
        assert fwd.log_bf == pytest.approx(rev.log_bf, abs=1e-10)

    def test_degenerate_propagates(self):
        with pytest.raises(DegenerateSample):
            engine.test_dependence(PairedSample(x=[1.0, 1.0, 1.0], y=[1.0, 2.0, 3.0]))

    def test_strong_dependence_detected(self):
        rng = np.random.default_rng(9)
        theta = rng.uniform(0, 2 * np.pi, 4000)
        x = 10 * np.cos(theta) + 2 * rng.standard_normal(4000)
        y = 10 * np.sin(theta) + 2 * rng.standard_normal(4000)
        res = engine.test_dependence(PairedSample(x=x, y=y))
        assert res.p_dependent > 0.95

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(10)
        sample = PairedSample(x=rng.normal(size=150), y=rng.normal(size=150))
        r1 = engine.test_dependence(sample)
        r2 = engine.test_dependence(sample)
        assert r1.log_bf == r2.log_bf
        assert r1.level_contributions == r2.level_contributions


_KINDS = ("continuous", "tied", "zero_inflated", "constant")


def _margin(draw, rng, n, kinds):
    """One margin of one of ``kinds``: continuous, rounded to ties, zero-inflated or constant."""
    z = rng.normal(size=n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    kind = draw(st.sampled_from(kinds))
    if kind == "tied":
        return np.round(z)
    if kind == "zero_inflated":
        return np.where(z < 0.5, 0.0, z)
    if kind == "constant":
        return np.full(n, 2.5)
    return z


@st.composite
def _samples(draw, kinds=_KINDS):
    """Samples of one to a few hundred points, y a noisy function of x or not."""
    n = draw(st.sampled_from([1, 2, 3, 17, 150, 400]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _margin(draw, rng, n, kinds)
    y = _margin(draw, rng, n, kinds)
    if draw(st.booleans()):
        y = y + np.sin(x)
    return PairedSample(x=x, y=y)


_CONFIGS = [PartitionConfig(), PartitionConfig(c=0.5, depth_cap=8),
            PartitionConfig(c=100.0, depth_cap=30, prior_odds=3.0)]


def _bits(res):
    """Every float of a result as bytes, the rest as it is: equal only bit for bit."""
    floats = np.array([res.log_bf, res.p_dependent, *res.level_contributions])
    return floats.tobytes(), res.n, res.truncated, res.method, res.config, res.delta_star, \
        res.shift_axis


def _degenerate(sample, cfg=None):
    """The message of the DegenerateSample that ``direct_test`` raises, or None."""
    try:
        direct_test(sample, cfg)
    except DegenerateSample as exc:
        return str(exc)
    return None


class TestOneRoute:
    """``test_dependence`` is the one-row candidate table; ``direct_test`` is one kernel call."""

    @settings(max_examples=200, deadline=None)
    @given(_samples(), st.sampled_from(_CONFIGS))
    @example(PairedSample(x=[3.7], y=[-1.0]), _CONFIGS[0])
    @example(PairedSample(x=[1.0, 1.0, 5.0], y=[2.0, 2.0, 7.0]), _CONFIGS[0])
    @example(PairedSample(x=[1.0, 1.0, 1.0], y=[1.0, 2.0, 3.0]), _CONFIGS[0])
    @example(PairedSample(x=[1.0, 2.0, 3.0], y=[0.1, 0.1, 0.1]), _CONFIGS[1])
    def test_equals_direct_kernel_call(self, sample, cfg):
        message = _degenerate(sample, cfg)
        if message is not None:
            with pytest.raises(DegenerateSample, match=f"^{re.escape(message)}$"):
                engine.test_dependence(sample, cfg)
            return
        assert _bits(engine.test_dependence(sample, cfg)) == _bits(direct_test(sample, cfg))

    @settings(max_examples=100, deadline=None)
    @given(_samples(), st.integers(0, 2**32 - 1))
    def test_row_permutation_is_bit_identical(self, sample, seed):
        perm = np.random.default_rng(seed).permutation(sample.n)
        moved = PairedSample(x=sample.x[perm], y=sample.y[perm])
        if _degenerate(sample) is not None:
            with pytest.raises(DegenerateSample):
                engine.test_dependence(moved)
            return
        assert _bits(engine.test_dependence(moved)) == _bits(engine.test_dependence(sample))

    # Tie-free input: where one margin is tied, many points share a column
    # down to the cap and the gap grows with n (about 1e-10 relative at
    # n = 400, 2e-9 at n = 2000), still far inside the 1e-6 per-cell accuracy.
    @settings(max_examples=100, deadline=None)
    @given(_samples(kinds=("continuous",)), st.sampled_from(_CONFIGS[:2]))
    def test_swap_moves_log_bf_by_rounding_only(self, sample, cfg):
        fwd = engine.test_dependence(sample, cfg).log_bf
        rev = engine.test_dependence(PairedSample(x=sample.y, y=sample.x), cfg).log_bf
        assert abs(fwd - rev) <= 1e-10 * max(1.0, abs(fwd))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 40]), st.integers(0, 2**32 - 1), st.sampled_from(METHODS))
def test_pairwise_scan_row_permutation_is_bit_identical(n, seed, method):
    rng = np.random.default_rng(seed)
    values = np.column_stack([rng.normal(size=n), np.round(rng.normal(size=n)),
                              np.where(rng.normal(size=n) < 0.5, 0.0, 1.0 + rng.random(n)),
                              np.full(n, 3.0), rng.normal(size=n)])
    values[:, 4] += values[:, 0]
    names = ("a", "b", "c", "d", "e")
    perm = rng.permutation(n)
    got = pairwise_scan(ExpressionMatrix(values=values[perm], var_names=names), method=method)
    want = pairwise_scan(ExpressionMatrix(values=values, var_names=names), method=method)
    assert [(p.var_a, p.var_b, p.error) for p in got] == [(p.var_a, p.var_b, p.error) for p in want]
    assert [p.result and _bits(p.result) for p in got] == [p.result and _bits(p.result) for p in want]


# Count patterns the c bounds were set on: balanced, one-sided, diagonal and
# crowded cells, totals up to 200.
_BOUND_COUNTS = [(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 0, 1), (5, 3, 2, 7), (20, 1, 0, 3),
                 (50, 50, 50, 50), (150, 0, 0, 0), (100, 0, 0, 100)]


def _worst_cell_error(c: float) -> float:
    """Largest distance of the kernel's cell term from the exact oracle at this c."""
    worst = 0.0
    for k in (1, 20, kernels.MAX_DEPTH_CAP):
        a = c * k * k
        for counts in _BOUND_COUNTS:
            got = float(kernels.cell_log_evidence(*counts, a))
            worst = max(worst, abs(got - exact_log_cell_evidence(counts, a)))
    return worst


class TestConfigValidation:
    def test_bad_c(self):
        with pytest.raises(ValueError):
            PartitionConfig(c=0.0)

    @pytest.mark.parametrize("c", engine.C_RANGE)
    def test_c_bounds_keep_cells_within_tolerance(self, c):
        PartitionConfig(c=c)
        assert _worst_cell_error(c) <= 1e-6

    def test_c_past_upper_bound_breaks_tolerance_and_is_rejected(self):
        c = 10.0 * engine.C_RANGE[1]
        assert _worst_cell_error(c) > 1e-6
        with pytest.raises(ValueError, match=r"c must lie in \[1e-300, 10000\], got 100000"):
            PartitionConfig(c=c)

    @pytest.mark.parametrize("c", [1e15, 1e-320])
    def test_extreme_c_rejected(self, c):
        with pytest.raises(ValueError, match="c must lie in"):
            PartitionConfig(c=c)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            PartitionConfig(depth_cap=0)
        with pytest.raises(ValueError):
            PartitionConfig(depth_cap=64)

    @pytest.mark.parametrize("depth_cap", [2.5, 3.0, True, "3"])
    def test_non_integer_depth_rejected(self, depth_cap):
        with pytest.raises(ValueError, match="depth_cap must be an integer"):
            PartitionConfig(depth_cap=depth_cap)

    def test_numpy_integer_depth_accepted(self):
        assert PartitionConfig(depth_cap=np.int64(5)).depth_cap == 5

    def test_mad_scale_is_not_a_setting(self):
        # the MAD is always scaled to be normal-consistent; the attribute reads True
        assert [f.name for f in dataclasses.fields(PartitionConfig)] == \
            ["c", "depth_cap", "prior_odds"]
        assert PartitionConfig().mad_normal_consistent is True
        with pytest.raises(TypeError):
            PartitionConfig(mad_normal_consistent=False)

    def test_bad_prior_odds(self):
        with pytest.raises(ValueError):
            PartitionConfig(prior_odds=-1.0)

    @pytest.mark.parametrize("field", ["c", "prior_odds"])
    @pytest.mark.parametrize("value", [True, False, np.True_, "5"])
    def test_bool_or_text_rejected(self, field, value):
        # a bool would run as 1 or 0 and be written back as true or false
        with pytest.raises(ValueError) as err:
            PartitionConfig(**{field: value})
        assert str(err.value) == f"{field} must be a number, got {value!r}"

    @pytest.mark.parametrize("field", ["c", "prior_odds"])
    @pytest.mark.parametrize("value", [2, np.float32(2.0), np.int64(2)])
    def test_any_real_number_accepted(self, field, value):
        assert getattr(PartitionConfig(**{field: value}), field) == 2

    @pytest.mark.parametrize("field", ["c", "prior_odds"])
    def test_nan_is_reported_as_not_finite(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got nan$"):
            PartitionConfig(**{field: float("nan")})
