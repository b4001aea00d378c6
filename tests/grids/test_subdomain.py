"""Tests for index-space boxes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.grids import Box, Subdomain, interior_face_points


class TestBox:
    def test_whole(self):
        b = Box.whole((5, 7))
        assert b.shape == (5, 7)
        assert b.npoints == 35

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            Box((0, 0), (0, 5))

    def test_slices(self):
        arr = np.arange(20).reshape(4, 5)
        b = Box((1, 2), (3, 5))
        assert arr[b.slices()].shape == (2, 3)

    def test_split_even(self):
        parts = Box.whole((12, 4)).split(0, 3)
        assert [p.shape for p in parts] == [(4, 4)] * 3
        assert parts[0].lo == (0, 0) and parts[2].hi == (12, 4)

    def test_split_remainder_spread(self):
        parts = Box.whole((10,)).split(0, 3)
        assert sorted(p.shape[0] for p in parts) == [3, 3, 4]
        # Partition is exact and contiguous.
        assert parts[0].lo[0] == 0
        for a, b in zip(parts, parts[1:]):
            assert a.hi[0] == b.lo[0]
        assert parts[-1].hi[0] == 10

    def test_split_too_many_raises(self):
        with pytest.raises(ValueError, match="cannot split"):
            Box.whole((3,)).split(0, 4)

    @given(st.integers(2, 50), st.integers(1, 10))
    def test_split_conserves_points(self, n, k):
        if k > n:
            k = n
        parts = Box.whole((n, 3)).split(0, k)
        assert sum(p.npoints for p in parts) == 3 * n


class TestInteriorFacePoints:
    def test_whole_grid_has_no_interior_faces(self):
        b = Box.whole((8, 8))
        assert interior_face_points(b, (8, 8)) == 0

    def test_half_split(self):
        parts = Box.whole((8, 6)).split(0, 2)
        # Each half exposes one 6-point face to the other.
        for p in parts:
            assert interior_face_points(p, (8, 6)) == 6

    def test_middle_box_has_two_faces(self):
        parts = Box.whole((9, 5)).split(0, 3)
        assert interior_face_points(parts[1], (9, 5)) == 10

    def test_3d(self):
        parts = Box.whole((4, 4, 4)).split(2, 2)
        assert interior_face_points(parts[0], (4, 4, 4)) == 16


class TestSubdomain:
    def test_npoints(self):
        sd = Subdomain(grid_index=1, rank=3, box=Box((0, 0), (4, 5)))
        assert sd.npoints == 20
