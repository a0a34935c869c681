import tracemalloc

import numpy as np
import pytest

from ptdep import diffscan
from ptdep.diffscan import (
    ExpressionMatrix,
    classify_edge,
    diff_scan,
    p_diff,
    pairwise_scan,
)
from ptdep.ebayes import ShiftSearchConfig
from ptdep.engine import PartitionConfig
from ptdep.errors import DegenerateSample, VarMismatch
from ptdep.transforms import PairedSample

from oracles import direct_test


def _matrix(rng, n_samples, names, dependent_pair=None):
    values = rng.standard_normal((n_samples, len(names)))
    if dependent_pair is not None:
        i, j = dependent_pair
        values[:, j] = values[:, i] + 0.1 * rng.standard_normal(n_samples)
    return ExpressionMatrix(values=values, var_names=tuple(names))


class TestPDiff:
    def test_certain_change(self):
        assert p_diff(1.0, 0.0) == 1.0
        assert p_diff(0.0, 1.0) == 1.0

    def test_half_half(self):
        assert p_diff(0.5, 0.5) == 0.5

    def test_arithmetic(self):
        assert p_diff(0.9, 0.2) == pytest.approx(0.74, abs=1e-15)

    def test_symmetry_and_bound(self):
        grid = np.linspace(0.0, 1.0, 51)
        for pa in grid:
            for pb in grid:
                v = p_diff(pa, pb)
                assert v == pytest.approx(p_diff(pb, pa), abs=1e-15)
                assert 0.0 <= v <= 1.0
        for p in grid:
            assert p_diff(p, p) == pytest.approx(2 * p * (1 - p), abs=1e-15)
            assert p_diff(p, p) <= 0.5 + 1e-15

    def test_range_validation(self):
        with pytest.raises(ValueError):
            p_diff(1.2, 0.5)
        with pytest.raises(ValueError):
            p_diff(0.5, -0.1)


class TestClassifyEdge:
    def test_rules(self):
        assert classify_edge(0.99, 0.01) == "lost_in_B"
        assert classify_edge(0.01, 0.99) == "gained_in_B"
        assert classify_edge(0.99, 0.97) == "indeterminate"
        assert classify_edge(0.2, 0.3) == "indeterminate"


@pytest.mark.parametrize("call", [p_diff, classify_edge])
@pytest.mark.parametrize("p_a, p_b, message", [
    (True, 0.0, "p_a must be a number, got True"),
    (0.5, "0.2", "p_b must be a number, got '0.2'"),
    (7, -3, "p_a must lie in [0, 1], got 7"),
    (0.5, np.nan, "p_b must lie in [0, 1], got nan"),
])
def test_a_probability_is_a_number_in_the_unit_interval(call, p_a, p_b, message):
    with pytest.raises(ValueError) as err:
        call(p_a, p_b)
    assert str(err.value) == message


class TestExpressionMatrix:
    def test_basic(self):
        m = ExpressionMatrix(values=[[1.0, 2.0], [3.0, 4.0]], var_names=("a", "b"))
        assert m.n_samples == 2 and m.n_vars == 2
        assert m.column("b").tolist() == [2.0, 4.0]

    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            ExpressionMatrix(values=[[1.0, 2.0]], var_names=("a", "a"))

    def test_names_equal_as_strings_are_duplicates(self):
        with pytest.raises(ValueError, match="unique"):
            ExpressionMatrix(values=[[1.0, 2.0]], var_names=(1, "1"))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            ExpressionMatrix(values=[[1.0, np.inf]], var_names=("a", "b"))

    @pytest.mark.parametrize("values, names, message", [
        (np.zeros(3), ("a",), "values must be 2-D, got shape (3,)"),
        (np.zeros((1, 1, 2)), ("a", "b"), "values must be 2-D, got shape (1, 1, 2)"),
        (np.zeros((0, 2)), ("a", "b"), "matrix must contain at least one sample row"),
        (np.zeros((2, 2)), ("a",), "1 names for 2 columns"),
        (np.zeros((2, 1)), ("a", "b"), "2 names for 1 columns"),
    ])
    def test_wrong_shape_rejected(self, values, names, message):
        with pytest.raises(ValueError) as err:
            ExpressionMatrix(values=values, var_names=names)
        assert str(err.value) == message


class TestPairwiseScan:
    def test_three_vars_three_pairs(self):
        rng = np.random.default_rng(0)
        m = _matrix(rng, 50, ["a", "b", "c"])
        out = pairwise_scan(m)
        assert [(p.var_a, p.var_b) for p in out] == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_constant_column_skipped_with_reason(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((40, 3))
        values[:, 1] = 7.0
        m = ExpressionMatrix(values=values, var_names=("a", "b", "c"))
        out = pairwise_scan(m)
        by_pair = {(p.var_a, p.var_b): p for p in out}
        assert by_pair[("a", "b")].result is None
        assert "identical" in by_pair[("a", "b")].error
        assert by_pair[("b", "c")].result is None
        assert by_pair[("a", "c")].result is not None

    def test_duplicated_column_detected(self):
        # frozen setup: duplicated standard-normal column, n = 500
        rng = np.random.default_rng(2)
        col = rng.standard_normal(500)
        m = ExpressionMatrix(
            values=np.column_stack([col, col, rng.standard_normal(500)]),
            var_names=("a", "a_copy", "noise"),
        )
        out = pairwise_scan(m)
        by_pair = {(p.var_a, p.var_b): p for p in out}
        assert by_pair[("a", "a_copy")].result.p_dependent > 0.99
        assert by_pair[("a", "noise")].result.p_dependent < 0.5

    def test_needs_two_vars(self):
        with pytest.raises(ValueError):
            pairwise_scan(ExpressionMatrix(values=[[1.0], [2.0]], var_names=("a",)))

    def test_ebayes_method(self):
        rng = np.random.default_rng(4)
        m = _matrix(rng, 60, ["a", "b"])
        basic = pairwise_scan(m, method="basic")
        eb = pairwise_scan(m, method="ebayes")
        assert eb[0].result.p_dependent >= basic[0].result.p_dependent


class TestDiffScan:
    def test_identical_conditions_no_edges(self):
        rng = np.random.default_rng(5)
        m = _matrix(rng, 100, ["a", "b", "c"], dependent_pair=(0, 1))
        assert diff_scan(m, m, threshold=0.95) == []

    def test_lost_edge(self):
        # independent data keeps a small residual p_dependent (~0.1 at this
        # size), so p_diff for a cleanly lost edge lands near 1 - p_dep_B
        rng = np.random.default_rng(6)
        m_a = _matrix(rng, 1000, ["a", "b"], dependent_pair=(0, 1))
        m_b = _matrix(rng, 1000, ["a", "b"])
        edges = diff_scan(m_a, m_b, threshold=0.9)
        assert len(edges) == 1
        edge = edges[0]
        assert edge.edge_class == "lost_in_B"
        assert edge.p_diff >= 0.9
        assert edge.p_dep_a > 0.5 > edge.p_dep_b

    def test_gained_edge(self):
        rng = np.random.default_rng(7)
        m_a = _matrix(rng, 1000, ["a", "b"])
        m_b = _matrix(rng, 1000, ["a", "b"], dependent_pair=(0, 1))
        edges = diff_scan(m_a, m_b, threshold=0.9)
        assert len(edges) == 1
        assert edges[0].edge_class == "gained_in_B"

    @pytest.mark.parametrize("threshold", [np.nan, -0.5, 1.01, 1.5, np.inf])
    def test_threshold_outside_unit_interval_rejected(self, threshold, monkeypatch):
        rng = np.random.default_rng(8)
        m_a = _matrix(rng, 200, ["a", "b"], dependent_pair=(0, 1))
        m_b = _matrix(rng, 200, ["a", "b"])

        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before checking the threshold")

        monkeypatch.setattr(diffscan, "pairwise_scan", no_scan)
        with pytest.raises(ValueError, match=r"threshold must lie in \[0, 1\]"):
            diff_scan(m_a, m_b, threshold=threshold)

    def test_bool_threshold_rejected(self, monkeypatch):
        m = _matrix(np.random.default_rng(8), 20, ["a", "b"])

        def no_scan(*args, **kwargs):
            raise AssertionError("scanned before checking the threshold")

        monkeypatch.setattr(diffscan, "pairwise_scan", no_scan)
        with pytest.raises(ValueError) as err:
            diff_scan(m, m, threshold=True)
        assert str(err.value) == "threshold must be a number, got True"

    def test_threshold_bounds_accepted(self):
        rng = np.random.default_rng(8)
        m_a = _matrix(rng, 200, ["a", "b"], dependent_pair=(0, 1))
        m_b = _matrix(rng, 200, ["a", "b"])
        assert len(diff_scan(m_a, m_b, threshold=0.0)) == 1
        assert diff_scan(m_a, m_b, threshold=1.0) == []

    def test_name_mismatch(self):
        rng = np.random.default_rng(9)
        m_a = _matrix(rng, 30, ["a", "b"])
        m_b = _matrix(rng, 30, ["a", "c"])
        with pytest.raises(VarMismatch):
            diff_scan(m_a, m_b)

    def test_column_order_aligned(self):
        rng = np.random.default_rng(10)
        m_a = _matrix(rng, 300, ["a", "b"], dependent_pair=(0, 1))
        # same variables, different column order, independent data
        vals = rng.standard_normal((300, 2))
        m_b = ExpressionMatrix(values=vals, var_names=("b", "a"))
        edges = diff_scan(m_a, m_b, threshold=0.7)
        assert len(edges) == 1
        assert {edges[0].var_a, edges[0].var_b} == {"a", "b"}

    def test_different_sample_counts_allowed(self):
        rng = np.random.default_rng(11)
        m_a = _matrix(rng, 150, ["a", "b"], dependent_pair=(0, 1))
        m_b = _matrix(rng, 400, ["a", "b"])
        edges = diff_scan(m_a, m_b, threshold=0.5)
        assert len(edges) == 1

    def test_degenerate_pair_skipped(self):
        rng = np.random.default_rng(12)
        values = rng.standard_normal((50, 2))
        values[:, 0] = 1.0
        m_a = ExpressionMatrix(values=values, var_names=("a", "b"))
        m_b = _matrix(rng, 50, ["a", "b"], dependent_pair=(0, 1))
        assert diff_scan(m_a, m_b, threshold=0.0) == []


class TestMapOnceScan:
    def _assert_equals_per_pair(self, m, cfg=None):
        out = pairwise_scan(m, cfg)
        k = 0
        for i in range(m.n_vars):
            for j in range(i + 1, m.n_vars):
                pr = out[k]
                k += 1
                assert (pr.var_a, pr.var_b) == (m.var_names[i], m.var_names[j])
                sample = PairedSample(x=m.values[:, i], y=m.values[:, j])
                try:
                    want = direct_test(sample, cfg)
                except DegenerateSample as exc:
                    assert pr.result is None and pr.error == str(exc)
                    continue
                assert pr.error is None
                assert pr.result == want
        assert k == len(out)

    def test_equals_per_pair_test(self):
        rng = np.random.default_rng(13)
        values = rng.standard_normal((120, 7))
        values[:, 3] = values[:, 1] ** 2 + 0.1 * rng.standard_normal(120)
        values[:, 5] = 2.5  # constant column
        values[:10, 6] = values[:10, 0]  # ties across columns
        m = ExpressionMatrix(values=values, var_names=tuple("abcdefg"))
        self._assert_equals_per_pair(m)
        self._assert_equals_per_pair(m, PartitionConfig(c=0.5, depth_cap=6, prior_odds=2.0))

    def test_many_pairs_over_several_calls(self):
        rng = np.random.default_rng(14)
        m = ExpressionMatrix(values=rng.standard_normal((300, 12)),
                             var_names=tuple(f"v{i}" for i in range(12)))
        self._assert_equals_per_pair(m)

    def test_one_row_matrix_gives_prior(self):
        m = ExpressionMatrix(values=[[1.0, 2.0, 2.0]], var_names=("a", "b", "c"))
        out = pairwise_scan(m)
        assert [p.result.p_dependent for p in out] == [0.5, 0.5, 0.5]
        assert all(p.result.n == 1 and p.error is None for p in out)


@pytest.mark.parametrize("n_vars", [6, 12])
def test_ebayes_midpoint_scan_holds_one_columns_cut_rows(monkeypatch, n_vars):
    n = 200
    m = _matrix(np.random.default_rng(15), n, [f"v{i}" for i in range(n_vars)])
    scfg = ShiftSearchConfig(grid="midpoints", axis_policy="xy")
    one_column = n * (n - 1) * 8  # bytes of one column's midpoint cut rows
    held = []  # traced bytes just before each column's cut rows are built
    build = diffscan.cut_rows

    def spy(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return build(*args)

    monkeypatch.setattr(diffscan, "cut_rows", spy)
    pairwise_scan(m, method="ebayes", scfg=scfg)  # warm caches
    held.clear()
    tracemalloc.start()
    try:
        pairwise_scan(m, method="ebayes", scfg=scfg)
    finally:
        tracemalloc.stop()
    # axis x builds columns 0..n_vars - 2, axis y columns 1..n_vars - 1. A partly
    # filled kernel call carries at most one call's rows (CHUNK_POINTS points)
    # into the next column, whatever n_vars; no earlier column's whole cut rows
    # may still be held when the next are built.
    assert len(held) == 2 * (n_vars - 1)
    assert max(held) - held[0] < one_column


@pytest.mark.parametrize("method, scfg", [("basic", None), ("ebayes", None),
                                          ("ebayes", ShiftSearchConfig(axis_policy="xy"))])
def test_constant_column_with_rounded_std_skips_its_pairs(method, scfg):
    values = np.random.default_rng(16).standard_normal((200, 3))
    values[:, 2] = 3.85  # its std rounds to 8.9e-16, not 0
    m = ExpressionMatrix(values=values, var_names=("a", "b", "c"))
    out = pairwise_scan(m, method=method, scfg=scfg)
    assert [(p.var_a, p.var_b) for p in out] == [("a", "b"), ("a", "c"), ("b", "c")]
    assert out[0].result is not None and out[0].error is None
    for pr in out[1:]:
        assert pr.result is None
        assert pr.error == "margin has zero spread (all values identical)"
