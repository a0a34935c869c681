import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from ptdep.errors import DegenerateSample
from ptdep import transforms
from ptdep.transforms import (
    PairedSample,
    _median,
    robust_location_scale,
    to_unit_interval,
    wrap_at,
)

from oracles import normal_cdf_quadrature, normal_tail_series


class TestPairedSample:
    def test_valid(self):
        s = PairedSample(x=[1.0, 2.0], y=[3.0, 4.0])
        assert s.n == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PairedSample(x=[1.0, 2.0], y=[3.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PairedSample(x=[1.0, np.nan], y=[3.0, 4.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PairedSample(x=[], y=[])

    def test_arrays_are_frozen(self):
        s = PairedSample(x=[1.0, 2.0], y=[3.0, 4.0])
        with pytest.raises(ValueError):
            s.x[0] = 9.0


class TestRobustLocationScale:
    def test_simple_median_mad(self):
        # median 3, MAD 1, normal-consistency factor 1.4826
        st = robust_location_scale([1, 2, 3, 4, 5])
        assert st.location == 3.0
        assert st.scale == pytest.approx(1.4826, abs=1e-12)
        assert not st.fallback_used

    def test_single_value_degenerate(self):
        with pytest.raises(DegenerateSample):
            robust_location_scale([7.0])

    def test_zero_mad_falls_back_to_std(self):
        # MAD of [0,0,0,0,1] is 0; sample std is sqrt(0.8/4)
        st = robust_location_scale([0, 0, 0, 0, 1])
        assert st.fallback_used
        assert st.scale == pytest.approx(0.4472135954999579, abs=1e-15)

    def test_constant_vector_degenerate(self):
        with pytest.raises(DegenerateSample):
            robust_location_scale([2.0, 2.0, 2.0])

    def test_constant_vector_with_rounded_std_degenerate(self):
        # the mean of 200 copies of 3.85 rounds away from 3.85
        values = np.full(200, 3.85)
        assert np.std(values, ddof=1) > 0.0
        with pytest.raises(DegenerateSample, match="zero spread"):
            robust_location_scale(values)


@st.composite
def _median_inputs(draw):
    """Vectors of any finite floats, or of a few values with many signed zeros."""
    n = draw(st.integers(1, 40))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        return np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    pool = draw(st.lists(finite, min_size=1, max_size=3)) + [0.0, -0.0]
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(_median_inputs())
@example(np.array([-0.0]))
@example(np.array([3.0, -1.0]))
@example(np.array([0.0, -5e-324]))
@example(np.array([2.0, 0.0, 0.0, -0.0, 0.0, 7.0]))
def test_median_is_numpy_median_bit_for_bit(x):
    with np.errstate(over="ignore"):
        want = np.median(x)
        got = _median(x)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@st.composite
def _zero_mad_margins(draw):
    """Zero-inflated or heavily tied margins, most with a zero MAD."""
    n = draw(st.integers(5, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=n)
    if draw(st.booleans()):
        share = draw(st.floats(0.5, 0.95))
        return np.where(rng.random(n) < share, 0.0, np.exp(z))
    return np.round(z, draw(st.integers(0, 1))) * draw(st.sampled_from([1.0, 0.1, 1e9]))


@settings(max_examples=200, deadline=None)
@given(_zero_mad_margins(), st.integers(0, 2**32 - 1))
def test_unit_interval_depends_on_the_multiset_only(y, seed):
    # the mapped-once permutation nulls re-pair a margin mapped once
    assume(np.unique(y).size > 1)
    mapped = to_unit_interval(y)
    for p in np.random.default_rng(seed).permuted(np.broadcast_to(np.arange(y.size),
                                                                  (20, y.size)), axis=1):
        assert to_unit_interval(y[p]).tobytes() == mapped[p].tobytes()


class TestNormalCdf:
    """The ``ndtr`` ufunc that :func:`to_unit_interval` maps through."""

    def test_zero_is_half(self):
        assert transforms.ndtr(0.0) == 0.5

    def test_upper_975_quantile(self):
        z = 1.959963984540054
        assert transforms.ndtr(z) == pytest.approx(0.975, abs=1e-9)
        assert transforms.ndtr(z) == pytest.approx(normal_cdf_quadrature(z), abs=1e-12)

    def test_far_tail(self):
        p = transforms.ndtr(-8.0)
        assert 0.0 < p < 1e-14
        assert p == pytest.approx(normal_tail_series(8.0), rel=1e-10)

    def test_symmetry(self):
        z = np.linspace(-8, 8, 1601)
        assert np.max(np.abs(transforms.ndtr(z) + transforms.ndtr(-z) - 1.0)) <= 1e-14

    def test_strictly_increasing(self):
        # beyond z ~ 7.7 successive values collapse into the same double
        z = np.linspace(-8, 7, 1501)
        assert np.all(np.diff(transforms.ndtr(z)) > 0)
        tail = np.linspace(7, 8, 101)
        assert np.all(np.diff(transforms.ndtr(tail)) >= 0)


class TestToUnitInterval:
    def test_median_maps_to_half(self):
        assert to_unit_interval([1, 2, 3, 4, 5])[2] == 0.5
        assert to_unit_interval([10, 20, 30, 40, 50])[2] == 0.5

    def test_symmetric_points(self):
        d = 1.3
        u = to_unit_interval([-d, 0.0, d])
        scale = robust_location_scale([-d, 0.0, d]).scale
        q = float(ndtr(d / scale))
        assert u[0] == pytest.approx(1.0 - q, abs=1e-15)
        assert u[2] == pytest.approx(q, abs=1e-15)

    def test_order_preserving(self):
        rng = np.random.default_rng(0)
        u = to_unit_interval(np.sort(rng.normal(size=5)))
        assert np.all(np.diff(u) > 0)
        assert len(np.unique(u)) == 5

    def test_open_interval(self):
        # huge outlier cannot reach the boundary
        u = to_unit_interval([0, 1, 2, 3, 1e9])
        assert np.all(u > 0) and np.all(u < 1)

    def test_location_scale_invariance(self):
        x = np.random.default_rng(5).normal(size=101)
        assert np.max(np.abs(to_unit_interval(x) - to_unit_interval(3.5 * x + 11.0))) <= 1e-12

    def test_degenerate_propagates(self):
        with pytest.raises(DegenerateSample):
            to_unit_interval([1.0, 1.0])

    def test_single_value_is_its_own_median(self):
        # z = 0, although robust_location_scale([7.0]) has no spread to report
        assert to_unit_interval([7.0]).tolist() == [0.5]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_single_non_finite_value_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            to_unit_interval([value])


class TestShiftWrap:
    def test_sentinel_is_identity(self):
        x = np.array([0.0, 5.0, 10.0])
        assert np.array_equal(wrap_at(x, -1.0), x)

    def test_wrap_moves_low_piece(self):
        assert wrap_at(np.array([0.0, 5.0, 10.0]), 5.0).tolist() == [10.0, 15.0, 10.0]

    def test_preserves_size_and_input(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40)
        before = x.copy()
        out = wrap_at(x, float(np.median(x)))
        assert out.shape == x.shape
        assert np.array_equal(x, before)

    def test_bijection_off_the_cut(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=60)
        delta = float(np.median(x)) + 1e-9
        assert len(np.unique(wrap_at(x, delta))) == len(np.unique(x))

    def test_y_axis_wrap(self):
        s = PairedSample(x=[1.0, 2.0, 3.0], y=[0.0, 5.0, 10.0])
        out = PairedSample(x=s.x, y=wrap_at(s.y, 5.0))
        assert out.y.tolist() == [10.0, 15.0, 10.0]
        assert np.array_equal(out.x, s.x)

    def test_column_of_cuts_gives_one_row_per_cut(self):
        x = np.array([0.0, 5.0, 10.0, 2.0])
        cuts = np.array([-1.0, 2.0, 5.0])
        rows = wrap_at(x, cuts[:, None])
        assert rows.shape == (3, 4)
        for cut, row in zip(cuts, rows):
            assert row.tobytes() == wrap_at(x, float(cut)).tobytes()
        assert rows[1].tolist() == [10.0, 5.0, 10.0, 12.0]
