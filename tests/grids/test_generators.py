"""Tests for synthetic grid generators: non-degeneracy and structure."""

import numpy as np
import pytest

from repro.grids import generators as gen
from repro.grids.gridmetrics import metrics2d


class TestProfiles:
    def test_naca0012_zero_at_ends(self):
        assert gen.naca0012_thickness(np.array([0.0]))[0] == pytest.approx(0.0)
        assert gen.naca0012_thickness(np.array([1.0]))[0] == pytest.approx(
            0.0, abs=1e-3
        )

    def test_naca0012_max_thickness(self):
        x = np.linspace(0, 1, 2001)
        t = gen.naca0012_thickness(x)
        # 12% thick: half-thickness peaks near 0.06 around x = 0.30.
        assert t.max() == pytest.approx(0.06, abs=0.002)
        assert abs(x[np.argmax(t)] - 0.30) < 0.02

    def test_naca0012_scales_with_chord(self):
        t1 = gen.naca0012_thickness(np.array([0.6]))
        t2 = gen.naca0012_thickness(np.array([1.2]), chord=2.0)
        assert t2[0] == pytest.approx(2.0 * t1[0])

    def test_ogive_radius_positive(self):
        s = np.linspace(0, 1, 100)
        r = gen.ogive_cylinder_radius(s)
        assert (r > 0).all()
        assert r.max() == pytest.approx(0.08)


class TestAirfoilOGrid:
    def test_shape_and_boundaries(self):
        g = gen.airfoil_ogrid("near", ni=61, nj=21)
        assert g.dims == (61, 21)
        kinds = {b.face: b.kind for b in g.boundaries}
        assert kinds["jmin"] == "wall"
        assert kinds["jmax"] == "overset"

    def test_seam_closed(self):
        g = gen.airfoil_ogrid("near", ni=61, nj=21)
        assert np.allclose(g.xyz[0], g.xyz[-1], atol=1e-12)

    def test_wall_is_on_airfoil(self):
        g = gen.airfoil_ogrid("near", ni=121, nj=21, chord=1.0)
        wall = g.face_points("jmin")
        assert wall[:, 0].min() >= -1e-9
        assert wall[:, 0].max() <= 1.0 + 1e-9
        assert np.abs(wall[:, 1]).max() == pytest.approx(0.06, abs=0.005)

    def test_not_tangled(self):
        g = gen.airfoil_ogrid("near", ni=121, nj=41)
        m = metrics2d(g.xyz, i_periodic=True)
        assert m.jac.min() > 0 or m.jac.max() < 0  # single orientation

    def test_wall_clustering(self):
        g = gen.airfoil_ogrid("near", ni=61, nj=31, cluster_beta=4.0)
        # First off-wall spacing much smaller than last.
        d_first = np.linalg.norm(g.xyz[:, 1] - g.xyz[:, 0], axis=-1).mean()
        d_last = np.linalg.norm(g.xyz[:, -1] - g.xyz[:, -2], axis=-1).mean()
        assert d_first < 0.2 * d_last


class TestAnnulus:
    def test_radii(self):
        g = gen.annulus_grid("mid", ni=61, nj=11, r_inner=1.0, r_outer=3.0,
                             center=(0.0, 0.0))
        r = np.linalg.norm(g.xyz, axis=-1)
        assert r.min() == pytest.approx(1.0)
        assert r.max() == pytest.approx(3.0)

    def test_rejects_inverted_radii(self):
        with pytest.raises(ValueError):
            gen.annulus_grid("bad", r_inner=3.0, r_outer=1.0)

    def test_not_tangled(self):
        g = gen.annulus_grid("mid", ni=91, nj=21)
        m = metrics2d(g.xyz, i_periodic=True)
        assert m.jac.min() > 0 or m.jac.max() < 0


class TestBackground:
    def test_uniform_spacing(self):
        g = gen.cartesian_background("bg", (-1, -2), (3, 2), (9, 5))
        dx = np.diff(g.xyz[:, 0, 0])
        assert np.allclose(dx, 0.5)

    def test_3d_background(self):
        g = gen.cartesian_background("bg", (0, 0, 0), (1, 1, 1), (5, 5, 5))
        assert g.ndim == 3
        assert g.npoints == 125


class TestWing:
    def test_extruded_wing_shape(self):
        g = gen.extruded_wing_grid("wing", ni=41, nj=11, nk=7, span=2.0)
        assert g.dims == (41, 11, 7)
        assert g.xyz[..., 2].max() == pytest.approx(2.0)

    def test_taper_shrinks_tip(self):
        g = gen.extruded_wing_grid("wing", ni=41, nj=11, nk=5, taper=0.3)
        root_extent = np.ptp(g.xyz[:, 0, 0, 0])
        tip_extent = np.ptp(g.xyz[:, 0, -1, 0])
        assert tip_extent < 0.5 * root_extent

    def test_sweep_shifts_tip_aft(self):
        g = gen.extruded_wing_grid("wing", ni=41, nj=11, nk=5, sweep=1.0)
        assert g.xyz[:, 0, -1, 0].mean() > g.xyz[:, 0, 0, 0].mean() + 0.5

    def test_sections_not_tangled(self):
        g = gen.extruded_wing_grid("wing", ni=61, nj=15, nk=5, taper=0.4)
        for k in range(g.dims[2]):
            m = metrics2d(np.ascontiguousarray(g.xyz[:, :, k, :2]),
                          i_periodic=True)
            assert m.jac.min() > 0 or m.jac.max() < 0


class TestStore:
    def test_body_of_revolution_shape(self):
        g = gen.body_of_revolution_grid("store", ni=31, nj=17, nk=9)
        assert g.dims == (31, 17, 9)

    def test_wall_on_body_surface(self):
        g = gen.body_of_revolution_grid(
            "store", ni=31, nj=17, nk=9, length=2.0, body_radius=0.1
        )
        wall = g.face_points("kmin")
        r = np.linalg.norm(wall[..., 1:], axis=-1)
        assert r.max() <= 0.1 + 1e-9

    def test_outer_at_outer_radius(self):
        g = gen.body_of_revolution_grid(
            "store", ni=31, nj=17, nk=9, outer_radius=0.5
        )
        outer = g.face_points("kmax")
        r = np.linalg.norm(outer[..., 1:], axis=-1)
        assert np.allclose(r, 0.5)

    def test_circumferential_seam_closed(self):
        g = gen.body_of_revolution_grid("store", ni=21, nj=17, nk=9)
        assert np.allclose(g.xyz[:, 0], g.xyz[:, -1], atol=1e-12)


class TestFinAndPipe:
    def test_fin_grid_spans_from_root(self):
        g = gen.fin_grid("fin", root=(0.8, 0.1, 0.0), span=0.2,
                         direction=(0, 1, 0))
        assert g.xyz[..., 1].min() >= 0.1 - 0.1  # normal extent small
        assert g.xyz[..., 1].max() <= 0.1 + 0.2 + 0.1

    def test_pipe_grid_points_down(self):
        g = gen.pipe_grid("pipe", origin=(0.0, 0.0, 0.0), length=2.0)
        assert g.xyz[..., 1].min() == pytest.approx(-2.0)
