"""Tests for axis-aligned bounding boxes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.grids import AABB


class TestConstruction:
    def test_of_points(self):
        pts = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 0.5]])
        box = AABB.of_points(pts)
        assert np.allclose(box.lo, [0.0, -1.0])
        assert np.allclose(box.hi, [2.0, 1.0])

    def test_of_points_multi_dim_input(self):
        pts = np.zeros((4, 5, 3))
        pts[1, 2] = [1, 2, 3]
        box = AABB.of_points(pts)
        assert np.allclose(box.hi, [1, 2, 3])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            AABB([1.0], [0.0])
        with pytest.raises(ValueError):
            AABB.of_points(np.zeros((0, 2)))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(AABB([0.0], [1.0]))


class TestQueries:
    def test_contains_vectorised(self):
        box = AABB([0.0, 0.0], [1.0, 1.0])
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [0.0, 1.0]])
        assert box.contains(pts).tolist() == [True, False, True]

    def test_contains_single_point(self):
        box = AABB([0.0, 0.0], [1.0, 1.0])
        assert box.contains(np.array([0.5, 0.5])) is True
        assert box.contains(np.array([2.0, 0.5])) is False

    def test_boundary_inclusive(self):
        box = AABB([0.0], [1.0])
        assert box.contains(np.array([[0.0], [1.0]])).all()

    def test_intersects(self):
        a = AABB([0.0, 0.0], [1.0, 1.0])
        b = AABB([0.5, 0.5], [2.0, 2.0])
        c = AABB([1.1, 1.1], [2.0, 2.0])
        assert a.intersects(b)
        assert b.intersects(a)
        assert not a.intersects(c)

    def test_touching_boxes_intersect(self):
        a = AABB([0.0], [1.0])
        b = AABB([1.0], [2.0])
        assert a.intersects(b)

    def test_inflated(self):
        box = AABB([0.0, 0.0], [1.0, 1.0]).inflated(0.25)
        assert np.allclose(box.lo, [-0.25, -0.25])
        assert np.allclose(box.hi, [1.25, 1.25])

    def test_center_extent(self):
        box = AABB([0.0, 1.0], [2.0, 4.0])
        assert np.allclose(box.center, [1.0, 2.5])
        assert np.allclose(box.extent, [2.0, 3.0])


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestProperties:
    @given(arrays(np.float64, (10, 3), elements=finite))
    def test_box_contains_its_points(self, pts):
        box = AABB.of_points(pts)
        assert box.contains(pts).all()

    @given(arrays(np.float64, (6, 2), elements=finite),
           st.floats(min_value=0, max_value=100))
    def test_inflation_preserves_containment(self, pts, margin):
        box = AABB.of_points(pts).inflated(margin)
        assert box.contains(pts).all()

    @given(arrays(np.float64, (5, 2), elements=finite),
           arrays(np.float64, (5, 2), elements=finite))
    def test_intersection_symmetric(self, a, b):
        ba, bb = AABB.of_points(a), AABB.of_points(b)
        assert ba.intersects(bb) == bb.intersects(ba)


maybe_nan = st.floats(min_value=-1e6, max_value=1e6) | st.just(np.nan)
point_sets = st.integers(1, 3).flatmap(
    lambda d: arrays(
        np.float64,
        st.sampled_from([(5, d), (1, d), (2, 3, d)]),
        elements=maybe_nan,
    )
)


class TestPerAxisReductions:
    """``of_points`` / ``contains`` reduce per coordinate column; the
    whole-array formulas they replaced are the oracle."""

    @given(point_sets)
    def test_of_points_is_min_max_over_points(self, pts):
        flat = pts.reshape(-1, pts.shape[-1])
        box = AABB.of_points(pts)
        assert np.array_equal(box.lo, flat.min(axis=0), equal_nan=True)
        assert np.array_equal(box.hi, flat.max(axis=0), equal_nan=True)

    @given(point_sets, st.data())
    def test_contains_is_all_over_last_axis(self, pts, data):
        d = pts.shape[-1]
        corners = data.draw(arrays(np.float64, (2, d), elements=finite))
        box = AABB(corners.min(axis=0), corners.max(axis=0))
        want = np.all((pts >= box.lo) & (pts <= box.hi), axis=-1)
        got = box.contains(pts)
        assert got.dtype == bool and np.array_equal(got, want)
        first = pts.reshape(-1, d)[0]
        assert box.contains(first) is bool(want.reshape(-1)[0])

    def test_contains_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            AABB([0.0, 0.0], [1.0, 1.0]).contains(np.zeros((4, 3)))
