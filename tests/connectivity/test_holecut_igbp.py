"""Tests for hole cutting and IGBP identification."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.cases import build_case, case_names
from repro.connectivity.holecut import (
    cut_holes,
    hole_fringe_mask,
    points_in_polygon,
)
from repro.connectivity.igbp import find_igbps, igbp_ratio
from repro.grids.generators import (
    airfoil_ogrid,
    annulus_grid,
    body_of_revolution_grid,
    cartesian_background,
)
from tests.connectivity import _reference_holecut as reference


class TestPointsInPolygon:
    def test_square(self):
        square = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
        pts = np.array([[1.0, 1.0], [3.0, 1.0], [-0.5, 1.0], [1.0, 2.5]])
        assert points_in_polygon(pts, square).tolist() == [
            True, False, False, False,
        ]

    def test_closed_polygon_with_repeated_vertex(self):
        tri = np.array([[0, 0], [2, 0], [1, 2], [0, 0]], dtype=float)
        assert points_in_polygon(np.array([[1.0, 0.5]]), tri)[0]

    def test_concave_polygon(self):
        # A "C" shape: point in the notch is outside.
        c = np.array(
            [[0, 0], [3, 0], [3, 1], [1, 1], [1, 2], [3, 2], [3, 3], [0, 3]],
            dtype=float,
        )
        assert points_in_polygon(np.array([[0.5, 1.5]]), c)[0]
        assert not points_in_polygon(np.array([[2.0, 1.5]]), c)[0]

    def test_airfoil_polygon(self):
        g = airfoil_ogrid("near", ni=121, nj=15)
        poly = g.face_points("jmin")
        inside = points_in_polygon(
            np.array([[0.5, 0.0], [0.5, 0.2], [1.5, 0.0]]), poly
        )
        assert inside.tolist() == [True, False, False]


class TestCutHoles:
    def make_system(self):
        near = airfoil_ogrid("near", ni=121, nj=21, radius=1.0)
        bg = cartesian_background("bg", (-2, -2), (3, 2), (81, 65))
        return [near, bg]

    def test_background_has_hole_at_airfoil(self):
        near, bg = self.make_system()
        iblanks = cut_holes([near, bg])
        # Points inside the airfoil body are blanked in the background.
        hole_count = int((iblanks[1] == 0).sum())
        assert hole_count > 0
        # The blanked region is near the airfoil: centroid around (0.5, 0).
        pts = bg.points_flat()[iblanks[1].reshape(-1) == 0]
        assert abs(pts[:, 0].mean() - 0.5) < 0.2
        assert abs(pts[:, 1].mean()) < 0.1

    def test_body_grid_not_self_cut(self):
        near, bg = self.make_system()
        iblanks = cut_holes([near, bg])
        assert (iblanks[0] == 1).all()

    def test_no_walls_no_holes(self):
        a = annulus_grid("a", ni=41, nj=11)
        b = cartesian_background("b", (-4, -4), (4, 4), (21, 21))
        iblanks = cut_holes([a, b])
        assert all((ib == 1).all() for ib in iblanks)

    def test_3d_box_cut(self):
        store = body_of_revolution_grid("store", ni=31, nj=17, nk=9,
                                        length=1.0, body_radius=0.1)
        bg = cartesian_background("bg", (-0.5, -0.5, -0.5), (1.5, 0.5, 0.5),
                                  (21, 11, 11))
        iblanks = cut_holes([store, bg])
        assert (iblanks[1] == 0).sum() > 0


class TestHoleFringe:
    def test_ring_around_hole(self):
        ib = np.ones((7, 7), dtype=np.int8)
        ib[3, 3] = 0
        fringe = hole_fringe_mask(ib)
        assert fringe[2, 3] and fringe[4, 3] and fringe[3, 2] and fringe[3, 4]
        assert not fringe[3, 3]  # the hole itself
        assert not fringe[2, 2]  # diagonal neighbours excluded
        assert fringe.sum() == 4

    def test_hole_at_boundary_no_wrap(self):
        ib = np.ones((5, 5), dtype=np.int8)
        ib[0, 0] = 0
        fringe = hole_fringe_mask(ib)
        assert fringe[1, 0] and fringe[0, 1]
        assert not fringe[-1, 0] and not fringe[0, -1]  # no wraparound

    def test_no_holes_no_fringe(self):
        assert not hole_fringe_mask(np.ones((4, 4), dtype=np.int8)).any()


class TestFindIgbps:
    def test_overset_face_points(self):
        g = annulus_grid("mid", ni=21, nj=9)
        s = find_igbps(g, grid_index=0)
        # jmin and jmax are overset: 2 * ni points.
        assert s.count == 2 * 21
        assert s.points.shape == (42, 2)

    def test_fringe_layers(self):
        g = annulus_grid("mid", ni=21, nj=9)
        s2 = find_igbps(g, 0, fringe_layers=2)
        assert s2.count == 4 * 21

    def test_hole_fringe_included(self):
        g = cartesian_background("bg", (0, 0), (8, 8), (9, 9))
        ib = np.ones((9, 9), dtype=np.int8)
        ib[4, 4] = 0
        s = find_igbps(g, 0, iblank=ib)
        # Farfield faces are not overset: only the 4 fringe points.
        assert s.count == 4

    def test_hole_points_excluded(self):
        g = annulus_grid("mid", ni=21, nj=9)
        ib = np.ones((21, 9), dtype=np.int8)
        ib[:, 0] = 0  # hole right on the overset face
        s = find_igbps(g, 0, iblank=ib)
        flat_hole = np.nonzero(ib.reshape(-1) == 0)[0]
        assert not np.intersect1d(s.flat_indices, flat_hole).size

    def test_coordinates_match_indices(self):
        g = annulus_grid("mid", ni=21, nj=9)
        s = find_igbps(g, 0)
        assert np.allclose(s.points, g.points_flat()[s.flat_indices])


class TestIgbpRatio:
    def test_matches_paper_scale(self):
        """The airfoil system's IGBP/gridpoint ratio should be within a
        factor ~2 of the paper's 44e-3 for similarly structured grids."""
        near = airfoil_ogrid("near", ni=121, nj=41, radius=1.0)
        mid = annulus_grid("mid", ni=121, nj=41, r_inner=0.9, r_outer=3.0,
                           center=(0.5, 0.0))
        bg = cartesian_background("bg", (-6.5, -7), (7.5, 7), (85, 85))
        grids = [near, mid, bg]
        iblanks = cut_holes(grids)
        sets = [
            find_igbps(g, i, iblanks[i]) for i, g in enumerate(grids)
        ]
        ratio = igbp_ratio(sets, grids)
        assert 0.02 < ratio < 0.09


# Coordinates off a coarse lattice as often as not, so generated input
# is full of horizontal edges, points level with a vertex and points on
# an edge — the cases the half-open crossing rule exists for.  The rest
# are float16 values, so no edge is short enough to overflow xcross.
lattice = st.integers(-3, 3).map(float)
coord = lattice | st.floats(-4.0, 4.0, width=16)
vertex = st.tuples(coord, coord)
point = st.tuples(
    coord | st.sampled_from([np.nan, np.inf, -np.inf]),
    coord | st.sampled_from([np.nan, np.inf, -np.inf]),
)


class TestAgainstReferenceKernels:
    """The candidate-pair ray cast and the sliced fringe give the very
    arrays the edge loop and the ``np.roll`` fringe gave."""

    @given(
        st.lists(vertex, min_size=3, max_size=12),
        st.booleans(),
        st.lists(point, max_size=30),
    )
    def test_points_in_polygon(self, poly, closed, pts):
        poly = np.array(poly + poly[:1] if closed else poly)
        pts = np.array(pts, dtype=float).reshape(-1, 2)
        got = points_in_polygon(pts, poly)
        assert got.dtype == bool
        assert np.array_equal(got, reference.points_in_polygon(pts, poly))

    @given(
        arrays(
            np.int8,
            array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=6),
            elements=st.integers(0, 2),
        )
    )
    def test_hole_fringe_mask(self, iblank):
        got = hole_fringe_mask(iblank)
        assert got.dtype == bool
        assert np.array_equal(got, reference.hole_fringe_mask(iblank))

    def test_straddle_mask_is_blocked(self):
        """200 000 points x 400 edges: the whole (edges, points) mask
        would be 80 MB a copy; the blocked one stays at a few."""
        theta = np.linspace(0.0, 2.0 * np.pi, 400, endpoint=False)
        poly = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        pts = np.random.default_rng(3).uniform(-1.5, 1.5, (200_000, 2))
        tracemalloc.start()
        try:
            inside = points_in_polygon(pts, poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert inside[r < 0.99].all() and not inside[r > 1.0].any()


@pytest.mark.parametrize("name", case_names())
def test_one_receiver_equals_whole_world(name):
    grids = build_case(name, scale=0.05).grids
    whole = cut_holes(grids)
    for gi in range(len(grids)):
        one = cut_holes(grids, receivers=(gi,))
        assert np.array_equal(one[gi], whole[gi])
        assert [k for k, ib in enumerate(one) if ib is not None] == [gi]
