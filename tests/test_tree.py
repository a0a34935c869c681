"""The reference quadrant tree in ``oracles``, against brute-force enumeration."""

import numpy as np
import pytest

from oracles import Rect, brute_force_quadrant_counts, build_count_tree, quadrant_digit


class TestQuadrantDigit:
    def test_four_quadrants(self):
        assert quadrant_digit(0.3, 0.3) == 0
        assert quadrant_digit(0.6, 0.3) == 1
        assert quadrant_digit(0.3, 0.6) == 2
        assert quadrant_digit(0.6, 0.6) == 3

    def test_midpoint_goes_up_right(self):
        assert quadrant_digit(0.5, 0.5) == 3

    def test_sub_cell(self):
        rect = Rect(0.5, 0.5, 1.0, 1.0)
        assert quadrant_digit(0.6, 0.6, rect) == 0
        assert quadrant_digit(0.8, 0.6, rect) == 1


class TestBuildCountTree:
    def test_single_point_empty_tree(self):
        t = build_count_tree([0.4], [0.4], depth_cap=20)
        assert t.cells == ()
        assert not t.truncated

    def test_two_separating_points_root_only(self):
        t = build_count_tree([0.2, 0.7], [0.2, 0.7], depth_cap=20)
        assert len(t.cells) == 1
        root = t.cells[0]
        assert root.address == ()
        assert root.counts == (1, 0, 0, 1)
        assert root.level == 1
        assert not t.truncated

    def test_coincident_points_truncate(self):
        t = build_count_tree([0.3, 0.3], [0.3, 0.3], depth_cap=6)
        assert len(t.cells) == 6
        assert t.truncated
        assert all(cell.total == 2 for cell in t.cells)

    def test_root_counts_sum_to_n(self):
        rng = np.random.default_rng(0)
        t = build_count_tree(rng.uniform(0.01, 0.99, 57), rng.uniform(0.01, 0.99, 57), 20)
        assert t.cells[0].total == 57

    def test_children_partition_parent(self):
        rng = np.random.default_rng(1)
        t = build_count_tree(rng.uniform(0.01, 0.99, 200), rng.uniform(0.01, 0.99, 200), 20)
        by_address = {c.address: c for c in t.cells}
        for cell in t.cells:
            for d in range(4):
                child = by_address.get(cell.address + (d,))
                if child is not None:
                    assert child.total == cell.counts[d]

    def test_cell_count_bound(self):
        rng = np.random.default_rng(2)
        n = 123
        t = build_count_tree(rng.uniform(0.01, 0.99, n), rng.uniform(0.01, 0.99, n), 20)
        assert len(t.cells) <= n * 20

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(0.01, 0.99, 80)
        v = rng.uniform(0.01, 0.99, 80)
        perm = rng.permutation(80)
        t1 = build_count_tree(u, v, 20)
        t2 = build_count_tree(u[perm], v[perm], 20)
        assert t1 == t2

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(4)
        u = rng.uniform(0.01, 0.99, 150)
        v = rng.uniform(0.01, 0.99, 150)
        t = build_count_tree(u, v, 8)
        expected = brute_force_quadrant_counts(u, v, 8)
        got = {c.address: c.counts for c in t.cells}
        assert got == expected

    def test_depth_cap_validation(self):
        with pytest.raises(ValueError):
            build_count_tree([0.1], [0.1], depth_cap=0)
