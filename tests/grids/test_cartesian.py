"""Tests for seven-parameter Cartesian grids and closed-form donor lookup."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.grids import CartesianGrid


class TestConstruction:
    def test_basic(self):
        g = CartesianGrid("bg", (0.0, 0.0, 0.0), 0.5, (5, 9, 3))
        assert g.ndim == 3
        assert g.npoints == 135

    def test_seven_parameters_in_3d(self):
        g = CartesianGrid("bg", (0.0, 0.0, 0.0), 0.5, (5, 9, 3))
        assert g.nparams == 7  # the paper's "seven parameters per grid"

    def test_five_parameters_in_2d(self):
        assert CartesianGrid("bg", (0.0, 0.0), 1.0, (3, 3)).nparams == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="spacing"):
            CartesianGrid("bad", (0.0,), 0.0, (3,))
        with pytest.raises(ValueError, match="mismatch"):
            CartesianGrid("bad", (0.0, 0.0), 1.0, (3,))
        with pytest.raises(ValueError, match=">= 2 points"):
            CartesianGrid("bad", (0.0,), 1.0, (1,))

    def test_bounding_box(self):
        g = CartesianGrid("bg", (1.0, 2.0), 0.5, (5, 3))
        box = g.bounding_box()
        assert np.allclose(box.lo, [1.0, 2.0])
        assert np.allclose(box.hi, [3.0, 3.0])

    def test_coordinates(self):
        g = CartesianGrid("bg", (0.0, 0.0), 1.0, (3, 2))
        xyz = g.coordinates()
        assert xyz.shape == (3, 2, 2)
        assert np.allclose(xyz[2, 1], [2.0, 1.0])


class TestLocate:
    def test_interior_point(self):
        g = CartesianGrid("bg", (0.0, 0.0), 1.0, (5, 5))
        cell, frac, inside = g.locate([[1.5, 2.25]])
        assert inside[0]
        assert cell[0].tolist() == [1, 2]
        assert np.allclose(frac[0], [0.5, 0.25])

    def test_outside_point(self):
        g = CartesianGrid("bg", (0.0, 0.0), 1.0, (5, 5))
        _, _, inside = g.locate([[-0.1, 2.0], [4.1, 2.0], [2.0, 2.0]])
        assert inside.tolist() == [False, False, True]

    def test_upper_face_belongs_to_last_cell(self):
        g = CartesianGrid("bg", (0.0,), 1.0, (5,))
        cell, frac, inside = g.locate([[4.0]])
        assert inside[0]
        assert cell[0, 0] == 3
        assert frac[0, 0] == pytest.approx(1.0)

    def test_vectorised_many_points(self):
        g = CartesianGrid("bg", (0.0, 0.0, 0.0), 0.1, (11, 11, 11))
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, size=(1000, 3))
        cell, frac, inside = g.locate(pts)
        assert inside.all()
        # Reconstruct: origin + (cell + frac) * h == point.
        recon = g.origin + (cell + frac) * g.spacing
        assert np.allclose(recon, pts)

    @given(st.floats(min_value=0.0, max_value=4.0),
           st.floats(min_value=0.0, max_value=4.0))
    def test_locate_reconstruction_property(self, x, y):
        g = CartesianGrid("bg", (0.0, 0.0), 0.5, (9, 9))
        cell, frac, inside = g.locate([[x, y]])
        assert inside[0]
        assert (frac >= 0).all() and (frac <= 1).all()
        recon = g.origin + (cell[0] + frac[0]) * g.spacing
        assert np.allclose(recon, [x, y], atol=1e-12)


class TestRefine:
    def test_refined_halves_spacing_same_box(self):
        g = CartesianGrid("bg", (0.0, 0.0), 1.0, (5, 3))
        r = g.refined()
        assert r.spacing == 0.5
        assert r.level == 1
        assert r.bounding_box() == g.bounding_box()

    def test_refined_point_count(self):
        g = CartesianGrid("bg", (0.0, 0.0, 0.0), 1.0, (3, 3, 3))
        assert g.refined().dims == (5, 5, 5)
