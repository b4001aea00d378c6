"""Tests for the stencil-walk donor search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity.donorsearch import _nearest_node_seed, donor_search
from repro.connectivity.interpolation import interpolate
from repro.grids.generators import (
    airfoil_ogrid,
    annulus_grid,
    cartesian_background,
)
from tests.connectivity._reference_donorsearch import (
    _nearest_node_seed as reference_seed,
)


def uniform_xyz(ni=11, nj=9, dx=1.0, dy=1.0):
    return cartesian_background("bg", (0, 0), (dx * (ni - 1), dy * (nj - 1)),
                                (ni, nj)).xyz


class TestUniformGrid:
    def test_exact_cells_and_fracs(self):
        xyz = uniform_xyz()
        pts = np.array([[2.5, 3.25], [0.1, 0.9], [9.99, 7.99]])
        r = donor_search(xyz, pts)
        assert r.found.all()
        assert r.cells[0].tolist() == [2, 3]
        assert np.allclose(r.fracs[0], [0.5, 0.25])

    def test_reconstruction(self):
        xyz = uniform_xyz()
        rng = np.random.default_rng(0)
        pts = rng.uniform([0, 0], [10, 8], size=(200, 2))
        r = donor_search(xyz, pts)
        assert r.found.all()
        recon = r.cells + r.fracs
        assert np.allclose(recon, pts, atol=1e-8)

    def test_outside_points_not_found(self):
        xyz = uniform_xyz()
        pts = np.array([[-1.0, 4.0], [11.0, 4.0], [5.0, -2.0]])
        r = donor_search(xyz, pts)
        assert not r.found.any()

    def test_mixed_inside_outside(self):
        xyz = uniform_xyz()
        pts = np.array([[5.0, 4.0], [50.0, 4.0]])
        r = donor_search(xyz, pts)
        assert r.found.tolist() == [True, False]


class TestWarmStart:
    def test_good_guess_converges_in_one_step(self):
        xyz = uniform_xyz()
        pts = np.array([[7.3, 2.6]])
        cold = donor_search(xyz, pts)
        warm = donor_search(xyz, pts, guesses=np.array([[7, 2]]))
        assert warm.found.all()
        assert warm.steps[0] == 1
        assert warm.steps[0] <= cold.steps[0]

    def test_nearby_guess_cheaper_than_cold(self):
        """The nth-level-restart effect: donors moved by ~1 cell cost
        far fewer walk steps than searches from scratch."""
        xyz = uniform_xyz(41, 41)
        rng = np.random.default_rng(1)
        pts = rng.uniform([1, 1], [39, 39], size=(100, 2))
        cold = donor_search(xyz, pts)
        nearby = cold.cells + rng.integers(-1, 2, size=cold.cells.shape)
        warm = donor_search(xyz, pts, guesses=nearby)
        assert warm.found.all()
        assert warm.total_steps < 0.5 * cold.total_steps

    def test_out_of_range_guess_clipped(self):
        xyz = uniform_xyz()
        r = donor_search(xyz, np.array([[5.0, 4.0]]),
                         guesses=np.array([[999, -999]]))
        assert r.found.all()


class TestCurvilinear:
    def test_annulus_reconstruction(self):
        g = annulus_grid("mid", ni=81, nj=21, r_inner=1.0, r_outer=3.0,
                         center=(0.0, 0.0))
        rng = np.random.default_rng(2)
        theta = rng.uniform(0.1, 2 * np.pi - 0.1, 50)
        rad = rng.uniform(1.1, 2.9, 50)
        pts = np.stack([rad * np.cos(theta), rad * np.sin(theta)], axis=-1)
        r = donor_search(g.xyz, pts)
        assert r.found.all()
        recon = interpolate(g.xyz, r.cells, r.fracs)
        assert np.allclose(recon, pts, atol=2e-3)  # bilinear on curved cells

    def test_airfoil_ogrid_finds_field_points(self):
        g = airfoil_ogrid("near", ni=121, nj=31, radius=2.0)
        pts = np.array([[1.5, 0.3], [0.5, -0.8], [-0.5, 0.2]])
        r = donor_search(g.xyz, pts)
        assert r.found.all()

    def test_point_inside_airfoil_body_not_found(self):
        """The airfoil interior is outside the O-grid's mapped region."""
        g = airfoil_ogrid("near", ni=121, nj=31, radius=2.0)
        r = donor_search(g.xyz, np.array([[0.5, 0.0]]))
        assert not r.found.any()

    def test_point_beyond_outer_radius_not_found(self):
        g = airfoil_ogrid("near", ni=61, nj=21, radius=1.5)
        r = donor_search(g.xyz, np.array([[5.0, 5.0]]))
        assert not r.found.any()


class TestWindowedSearch:
    """The distributed protocol walks only inside a rank's cell window."""

    def test_escape_reports_hint(self):
        xyz = uniform_xyz(21, 21)
        # Window covers cells i in [0, 9]; target lives at i ~ 15.
        r = donor_search(
            xyz,
            np.array([[15.5, 10.2]]),
            guesses=np.array([[5, 10]]),
            cell_lo=np.array([0, 0]),
            cell_hi=np.array([9, 19]),
        )
        assert not r.found.any()
        # Hint points beyond the window toward the target.
        assert r.cells[0, 0] >= 9

    def test_window_hit(self):
        xyz = uniform_xyz(21, 21)
        r = donor_search(
            xyz,
            np.array([[5.5, 10.2]]),
            cell_lo=np.array([0, 0]),
            cell_hi=np.array([9, 19]),
        )
        assert r.found.all()


class TestSteps3D:
    def test_3d_uniform(self):
        g = cartesian_background("bg", (0, 0, 0), (5, 5, 5), (6, 6, 6))
        pts = np.array([[2.5, 3.5, 1.25], [0.5, 0.5, 4.5]])
        r = donor_search(g.xyz, pts)
        assert r.found.all()
        assert np.allclose(r.cells + r.fracs, pts, atol=1e-6)

    def test_3d_outside(self):
        g = cartesian_background("bg", (0, 0, 0), (5, 5, 5), (6, 6, 6))
        r = donor_search(g.xyz, np.array([[9.0, 2.0, 2.0]]))
        assert not r.found.any()


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 9.99), st.floats(0.01, 7.99))
    def test_any_interior_point_found(self, x, y):
        xyz = uniform_xyz()
        r = donor_search(xyz, np.array([[x, y]]))
        assert r.found.all()
        assert (r.fracs >= 0).all() and (r.fracs <= 1).all()

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.05, 6.2), st.floats(1.15, 2.85))
    def test_annulus_found_property(self, theta, rad):
        g = annulus_grid("mid", ni=61, nj=17, r_inner=1.0, r_outer=3.0,
                         center=(0.0, 0.0))
        pt = np.array([[rad * np.cos(theta), rad * np.sin(theta)]])
        r = donor_search(g.xyz, pt)
        assert r.found.all()


def wavy_grid(ni, nj, amp, kx, ky, theta=0.0, shift=(0.0, 0.0)):
    """A random *smooth* curvilinear grid: a cartesian sheet with
    sinusoidal coordinate waves, rigidly rotated by ``theta`` and
    translated by ``shift``.  ``amp <= 0.3`` keeps every cell a convex
    quad, so the multilinear cell maps tile the domain without overlap
    and a donor (cell, frac) pair is unique away from cell faces."""
    i = np.arange(ni, dtype=float)[:, None] * np.ones((1, nj))
    j = np.ones((ni, 1)) * np.arange(nj, dtype=float)[None, :]
    x = i + amp * np.sin(2.0 * np.pi * kx * j / (nj - 1))
    y = j + amp * np.sin(2.0 * np.pi * ky * i / (ni - 1))
    c, s = np.cos(theta), np.sin(theta)
    return np.stack(
        [c * x - s * y + shift[0], s * x + c * y + shift[1]], axis=-1
    )


class TestRoundTripProperties:
    """ISSUE satellite: (cell, frac) -> physical point -> search must
    recover the donor on random smooth curvilinear grids, and warm
    (nth-level-restart) searches must beat cold ones after small grid
    motion."""

    @settings(max_examples=40, deadline=None)
    @given(
        amp=st.floats(0.0, 0.3),
        kx=st.integers(1, 3),
        ky=st.integers(1, 3),
        theta=st.floats(0.0, 0.6),
        ci=st.integers(0, 10),
        cj=st.integers(0, 8),
        fa=st.floats(0.05, 0.95),
        fb=st.floats(0.05, 0.95),
    )
    def test_single_donor_roundtrip(self, amp, kx, ky, theta, ci, cj, fa, fb):
        xyz = wavy_grid(12, 10, amp, kx, ky, theta)
        cells = np.array([[ci, cj]])
        fracs = np.array([[fa, fb]])
        pt = interpolate(xyz, cells, fracs)
        r = donor_search(xyz, pt)
        assert r.found.all()
        assert r.cells.tolist() == cells.tolist()
        assert np.allclose(r.fracs, fracs, atol=1e-6)
        # ... and the recovered donor reproduces the physical point.
        assert np.allclose(interpolate(xyz, r.cells, r.fracs), pt, atol=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(
        amp=st.floats(0.0, 0.25),
        kx=st.integers(1, 3),
        ky=st.integers(1, 3),
        seed=st.integers(0, 1_000),
    )
    def test_batch_roundtrip(self, amp, kx, ky, seed):
        ni, nj = 17, 13
        xyz = wavy_grid(ni, nj, amp, kx, ky)
        rng = np.random.default_rng(seed)
        n = 50
        cells = np.stack(
            [rng.integers(0, ni - 1, n), rng.integers(0, nj - 1, n)], axis=-1
        )
        fracs = rng.uniform(0.05, 0.95, size=(n, 2))
        pts = interpolate(xyz, cells, fracs)
        r = donor_search(xyz, pts)
        assert r.found.all()
        assert (r.cells == cells).all()
        assert np.allclose(r.fracs, fracs, atol=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(
        amp=st.floats(0.0, 0.2),
        angle=st.floats(0.002, 0.02),
        dx=st.floats(-0.2, 0.2),
        dy=st.floats(-0.2, 0.2),
        seed=st.integers(0, 1_000),
    )
    def test_warm_restart_beats_cold_after_small_motion(
        self, amp, angle, dx, dy, seed
    ):
        """Move the grid by a sub-cell rigid motion; re-searching from
        the previous donors (warm) must take strictly fewer total walk
        steps than re-searching from scratch (cold)."""
        xyz0 = wavy_grid(41, 41, amp, 2, 2)
        rng = np.random.default_rng(seed)
        pts = rng.uniform([6.0, 6.0], [34.0, 34.0], size=(80, 2))
        before = donor_search(xyz0, pts)
        assert before.found.all()

        # Rigid motion about the grid centre + small translation.
        centre = xyz0.reshape(-1, 2).mean(axis=0)
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        xyz1 = (xyz0 - centre) @ rot.T + centre + np.array([dx, dy])

        cold = donor_search(xyz1, pts)
        warm = donor_search(xyz1, pts, guesses=before.cells)
        assert cold.found.all() and warm.found.all()
        # Same donors either way ...
        assert (warm.cells == cold.cells).all()
        # ... but the restart pays strictly fewer walk steps.
        assert warm.total_steps < cold.total_steps


# ----------------------------------------------------------------------
# 3-D on curvilinear grids, checked against formulas written here rather
# than the kernel's own helpers


def wavy_grid3d(dims, amp, seed):
    """Index-space lattice with smooth sinusoidal waves plus a little
    random node jitter; ``amp <= 0.2`` keeps every hexahedron well away
    from degenerate."""
    rng = np.random.default_rng(seed)
    axes = [np.arange(d, dtype=float) for d in dims]
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    waves = amp * np.sin(0.9 * np.roll(x, 1, axis=-1) + rng.uniform(0, 6, 3))
    return x + waves + rng.uniform(-0.03, 0.03, x.shape)


def trilinear(xyz, cells, s):
    """Trilinear map of ``cells`` (..., 3) at ``s`` (..., 3), written as
    three nested linear interpolations."""
    o = np.arange(2)
    i, j, k = (cells[..., d, None, None, None] for d in range(3))
    c = xyz[i + o[:, None, None], j + o[None, :, None], k + o]  # (..., 2, 2, 2, 3)
    s = np.asarray(s)
    a, b, g = s[..., 0, None, None, None], s[..., 1, None, None], s[..., 2, None]
    c = c[..., 0, :, :, :] + a * (c[..., 1, :, :, :] - c[..., 0, :, :, :])
    c = c[..., 0, :, :] + b * (c[..., 1, :, :] - c[..., 0, :, :])
    return c[..., 0, :] + g * (c[..., 1, :] - c[..., 0, :])


def invert_in_cells(xyz, cells, pts, iters=25, h=1e-6):
    """Newton per (cell, point) row with a central-difference Jacobian;
    returns ``s`` and the max-abs residual of each row."""
    s = np.full(pts.shape, 0.5)
    for _ in range(iters):
        r = trilinear(xyz, cells, s) - pts
        jac = np.stack(
            [
                (trilinear(xyz, cells, s + h * e) - trilinear(xyz, cells, s - h * e))
                / (2 * h)
                for e in np.eye(3)
            ],
            axis=-1,
        )
        s = np.clip(s - np.linalg.solve(jac, r[..., None])[..., 0], -50, 50)
    return s, np.abs(trilinear(xyz, cells, s) - pts).max(axis=-1)


class TestCurvilinear3D:
    @settings(max_examples=25, deadline=None)
    @given(amp=st.floats(0.0, 0.2), seed=st.integers(0, 1_000))
    def test_roundtrip_cold_and_warm(self, amp, seed):
        dims = (8, 7, 6)
        xyz = wavy_grid3d(dims, amp, seed)
        rng = np.random.default_rng(seed)
        n = 40
        cells = np.stack([rng.integers(0, d - 1, n) for d in dims], axis=-1)
        fracs = rng.uniform(0.05, 0.95, (n, 3))
        pts = trilinear(xyz, cells, fracs)
        cold = donor_search(xyz, pts)
        off = rng.integers(-1, 2, cells.shape)
        warm = donor_search(xyz, pts, guesses=cells + off)
        for r in (cold, warm):
            assert r.found.all() and not r.escaped.any()
            assert (r.cells == cells).all()
            assert np.abs(r.fracs - fracs).max() < 1e-8
        # The hint pays: no coarse seed scan, a walk of a cell or two.
        assert warm.total_steps < cold.total_steps

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_brute_force_containing_cell(self, seed):
        dims = (6, 5, 6)
        xyz = wavy_grid3d(dims, 0.15, seed)
        rng = np.random.default_rng(100 + seed)
        pts = rng.uniform(-0.6, np.array(dims) - 0.4, (60, 3))
        got = donor_search(xyz, pts)
        every = np.array(list(np.ndindex(*(d - 1 for d in dims))))  # (m, 3)
        s, resid = invert_in_cells(
            xyz,
            np.broadcast_to(every, (len(pts), *every.shape)),
            np.broadcast_to(pts[:, None, :], (len(pts), *every.shape)),
        )
        # Distance of each converged solution outside the unit cube.
        outside = np.where(
            resid < 1e-9, np.abs(s - np.clip(s, 0, 1)).max(axis=-1), np.inf
        )  # (n, m)
        decided = 0
        for p, pt in enumerate(pts):
            holders = {tuple(c) for c in every[outside[p] < 1e-7]}
            if not holders and outside[p].min() < 1e-5:
                continue  # within rounding of the hull: either answer
            decided += 1
            assert got.found[p] == bool(holders), (p, pt)
            if holders:  # several only on a shared face / edge / node
                assert tuple(got.cells[p]) in holders, (p, pt)
                assert np.allclose(
                    trilinear(xyz, got.cells[p], got.fracs[p]), pt, atol=1e-8
                )
        assert decided >= 55 and 10 < got.found.sum() < 55

    def test_windowed_escape_hints_into_neighbour_window(self):
        xyz = wavy_grid3d((14, 7, 7), 0.15, 3)
        rng = np.random.default_rng(3)
        n = 30
        # Donors live in i-cells 7..12; this rank owns i-cells 0..5 and
        # its neighbour 6..12.
        cells = np.stack(
            [rng.integers(7, 13, n), rng.integers(0, 6, n), rng.integers(0, 6, n)],
            axis=-1,
        )
        pts = trilinear(xyz, cells, rng.uniform(0.1, 0.9, (n, 3)))
        mine = donor_search(xyz, pts, cell_lo=[0, 0, 0], cell_hi=[5, 5, 5])
        assert mine.escaped.all() and not mine.found.any()
        assert (mine.cells[:, 0] >= 6).all()
        assert ((mine.cells >= 0) & (mine.cells <= [12, 5, 5])).all()
        # The neighbour finishes the search from the hint.
        theirs = donor_search(
            xyz, pts, guesses=mine.cells, cell_lo=[6, 0, 0], cell_hi=[12, 5, 5]
        )
        assert theirs.found.all()
        assert (theirs.cells == cells).all()


# ----------------------------------------------------------------------
# input normalisation and degenerate inputs


class TestInputEdges:
    def test_single_point_single_guess_are_normalised_alike(self):
        xyz = uniform_xyz()
        r = donor_search(xyz, np.array([1.5, 1.5]), guesses=np.array([1, 1]))
        assert r.found.tolist() == [True]
        assert r.cells.tolist() == [[1, 1]]
        assert r.steps.tolist() == [1]

    def test_guess_shape_mismatch_names_both_shapes(self):
        xyz = uniform_xyz()
        with pytest.raises(ValueError, match=r"\(1, 2\).*\(3, 2\)"):
            donor_search(xyz, np.ones((3, 2)), guesses=np.array([1, 1]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("guesses", [None, np.array([[2, 2, 2]] * 3)])
    def test_empty_cell_window_finds_nothing(self, guesses):
        """``cell_lo > cell_hi`` on an axis: a rank whose box holds only
        the last node plane owns no cell."""
        g = cartesian_background("bg", (0, 0, 0), (5, 5, 5), (6, 6, 6))
        pts = np.array([[2.5, 3.5, 1.25], [0.5, 0.5, 4.5], [9.0, 2.0, 2.0]])
        r = donor_search(
            g.xyz, pts, guesses=guesses, cell_lo=[5, 0, 0], cell_hi=[4, 4, 4]
        )
        assert not r.found.any() and not r.escaped.any()
        assert r.steps.tolist() == [0, 0, 0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("windowed", [False, True])
    @pytest.mark.parametrize("warm", [False, True])
    def test_non_finite_points_are_skipped(self, warm, windowed):
        g = cartesian_background("bg", (0, 0, 0), (5, 5, 5), (6, 6, 6))
        pts = np.array([
            [2.5, 3.5, 1.25],
            [np.nan, 1.0, 1.0],
            [0.5, np.inf, 4.5],
            [0.5, 0.5, 4.5],
        ])
        finite = np.array([True, False, False, True])
        kw = {}
        if warm:
            kw["guesses"] = np.array([[1, 1, 1], [-1, -1, -1], [2, 2, 2], [0, 0, 3]])
        if windowed:
            kw.update(cell_lo=[0, 0, 0], cell_hi=[4, 4, 4])
        r = donor_search(g.xyz, pts, **kw)
        assert r.found.tolist() == finite.tolist()
        assert not r.escaped.any()
        assert (r.steps[~finite] == 0).all()
        # The finite rows are searched exactly as if they were alone.
        if warm:
            kw["guesses"] = kw["guesses"][finite]
        alone = donor_search(g.xyz, pts[finite], **kw)
        for f in ("cells", "fracs", "found", "steps", "escaped"):
            assert (getattr(r, f)[finite] == getattr(alone, f)).all()


# ----------------------------------------------------------------------
# the cold-start seed against the (n, m, ndim) scan it replaced


@pytest.mark.parametrize("dims", [(19, 14), (9, 8, 7)])
def test_seed_scan_matches_reference(dims):
    """Per-axis accumulation keeps ``.sum(axis=-1)``'s order, so the
    squared distances — and with them every argmin, exact ties on a
    doubled O-grid seam included — are the reference's bit for bit."""
    rng = np.random.default_rng(len(dims))
    xyz = rng.normal(size=dims + (len(dims),))
    # The seam, and a coincident node line inside the sampled window
    # (cells 0..ni-2): every i = 0 sample ties with i = ni - 2.
    xyz[-2:] = xyz[0]
    on_seam = xyz[0, ::2].reshape(-1, len(dims))
    pts = np.concatenate([rng.normal(size=(300, len(dims))), on_seam])
    lo = np.zeros(len(dims), dtype=np.int64)
    hi = np.array(dims) - 2
    for target in (256, 10_000):  # strided and every-node sampling
        got, cost = _nearest_node_seed(xyz, pts, lo, hi, target)
        want, want_cost = reference_seed(xyz, pts, lo, hi, target)
        assert np.array_equal(got, want) and cost == want_cost
