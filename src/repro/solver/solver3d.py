"""Per-component-grid 3-D flow solver.

The 3-D counterpart of :class:`repro.solver.solver2d.Solver2D`:
Euler (optionally laminar thin-layer viscous) on a 3-D curvilinear
component grid, marched with the same factored implicit update — three
batched tridiagonal sweeps per step.  Supports the boundary inventory
the 3-D case grids use: farfield, overset (external fringe injection),
one periodic index direction, and walls on any face (no-slip viscous or
metric-normal tangency).  The Baldwin-Lomax model is 2-D-only here; the
performance study charges its cost through the work model.

This is the "real physics" path for the paper's 3-D geometries at
example scale — the benchmark tables use the calibrated work model
instead (DESIGN.md §3).
"""

from __future__ import annotations

import numpy as np

from repro.grids.gridmetrics3d import metrics3d
from repro.grids.structured import CurvilinearGrid
from repro.solver import boundary as bc
from repro.solver.adi import implicit_sweep
from repro.solver.flux3d import inviscid_residual3d, spectral_radii3d
from repro.solver.solver2d import ComponentSolver
from repro.solver.state import FlowConfig, conservative3d, primitive3d

_GHOSTS = 2
_AXIS = {"i": 0, "j": 1, "k": 2}


class Solver3D(ComponentSolver):
    """Implicit compressible flow solver on one 3-D curvilinear grid."""

    def __init__(self, grid: CurvilinearGrid, config: FlowConfig):
        if grid.ndim != 3:
            raise ValueError("Solver3D needs a 3-D grid")
        if grid.turbulence:
            raise NotImplementedError(
                "Baldwin-Lomax is implemented for the 2-D solver only; "
                "3-D turbulent work is charged via the work model"
            )
        self.periodic_axis = self._periodic_axis(grid)
        super().__init__(grid, config, config.freestream3d())

    # ------------------------------------------------------------------

    @staticmethod
    def _periodic_axis(grid: CurvilinearGrid) -> int | None:
        axes = {
            _AXIS[b.face[0]]
            for b in grid.boundaries
            if b.kind == "periodic"
        }
        if not axes:
            return None
        if len(axes) > 1:
            raise ValueError("only one periodic direction is supported")
        return axes.pop()

    def _setup_geometry(self, xyz: np.ndarray) -> None:
        self.xyz = np.ascontiguousarray(xyz)
        padded = self._pad(self.xyz)
        self.metrics = metrics3d(padded)
        self._wall_normals = {
            b.face: self._face_normals(b.face)
            for b in self.grid.boundaries
            if b.kind == "wall"
        }

    def _face_normals(self, face: str) -> np.ndarray:
        """Unit normals of a wall face, oriented into the fluid."""
        ndim = 3
        wall = self.xyz[bc.face_slicer(face, ndim)]
        off_pos = 1 if face.endswith("min") else -2
        off = self.xyz[bc.face_slicer(face, ndim, pos=off_pos)]
        # Surface tangents: the face array keeps the two in-face index
        # directions as its leading axes.
        t1 = np.gradient(wall, axis=0, edge_order=1)
        t2 = np.gradient(wall, axis=1, edge_order=1)
        n = np.cross(t1, t2)
        sign = np.sign(np.einsum("...i,...i->...", n, off - wall))
        n *= np.where(sign == 0, 1.0, sign)[..., None]
        norm = np.linalg.norm(n, axis=-1, keepdims=True)
        return n / np.maximum(norm, 1e-300)

    def _pad(self, arr: np.ndarray) -> np.ndarray:
        if self.periodic_axis is None:
            return arr
        return bc.wrap_periodic(arr, _GHOSTS, axis=self.periodic_axis)

    def _unpad(self, arr: np.ndarray) -> np.ndarray:
        if self.periodic_axis is None:
            return arr
        return bc.unwrap_periodic(arr, _GHOSTS, axis=self.periodic_axis)

    # ------------------------------------------------------------------

    def timestep(self) -> float:
        g = self.config.gas.gamma
        q = self._pad(self.q)
        lam = spectral_radii3d(q, self.metrics, g)
        dt_local = (
            self.config.cfl
            * self.metrics.jac_abs
            / (lam[0] + lam[1] + lam[2] + 1e-300)
        )
        return float(dt_local.min())

    def step(self, dt: float | None = None) -> dict:
        cfg = self.config
        g = cfg.gas.gamma
        if dt is None:
            dt = self.timestep()
        q = self._pad(self.q)
        m = self.metrics
        r = inviscid_residual3d(q, m, g, cfg.k2, cfg.k4)
        if self.grid.viscous:
            r -= self._thin_layer_viscous(q)

        rhs = -dt * r / m.jac[..., None]
        lam = spectral_radii3d(q, m, g)
        dq = rhs
        for d in range(3):
            dq = implicit_sweep(dq, dt * lam[d] / m.jac_abs, axis=d)
        return self._commit(self._unpad(dq), dt)

    # ------------------------------------------------------------------

    def _thin_layer_viscous(self, q: np.ndarray) -> np.ndarray:
        """Thin-layer shear terms along the wall-normal axis of the
        first wall face (zero when the grid has no wall)."""
        walls = self.grid.wall_faces()
        if not walls:
            return np.zeros_like(q)
        axis = _AXIS[walls[0].face[0]]
        g = self.config.gas.gamma
        rho, u, v, w, p = primitive3d(q, g)
        c2 = g * p / rho
        k = self.metrics.direction(axis)
        phi = np.einsum("...i,...i->...", k, k) / np.maximum(
            self.metrics.jac_abs, 1e-300
        )
        kappa = 1.0 / (self.config.gas.prandtl * (g - 1.0))
        mu = self.mu_laminar

        def half(f):
            lo = np.moveaxis(f, axis, 0)
            return 0.5 * (lo[:-1] + lo[1:])

        def diff(f):
            lo = np.moveaxis(f, axis, 0)
            return lo[1:] - lo[:-1]

        coef = mu * half(phi)
        du, dv, dw, dc2 = diff(u), diff(v), diff(w), diff(c2)
        uh, vh, wh = half(u), half(v), half(w)
        s = np.zeros(du.shape + (5,), dtype=float)
        s[..., 1] = coef * du
        s[..., 2] = coef * dv
        s[..., 3] = coef * dw
        s[..., 4] = coef * (
            uh * du + vh * dv + wh * dw + kappa * dc2
        )
        out_m = np.zeros(np.moveaxis(q, axis, 0).shape, dtype=float)
        out_m[1:-1] = s[1:] - s[:-1]
        return np.moveaxis(out_m, 0, axis)

    # ------------------------------------------------------------------

    def _apply_physical_bcs(self) -> None:
        g = self.config.gas.gamma
        for b in self.grid.boundaries:
            if b.kind == "farfield":
                bc.apply_farfield(self.q, b.face, self.qinf)
            elif b.kind == "wall":
                self._apply_wall(b.face)
        if self.periodic_axis is not None:
            bc.apply_periodic_seam(self.q, axis=self.periodic_axis)

    def _apply_wall(self, face: str) -> None:
        g = self.config.gas.gamma
        ndim = 3
        interior_pos = 1 if face.endswith("min") else -2
        q_i = self.q[bc.face_slicer(face, ndim, pos=interior_pos)]
        rho, u, v, w, p = primitive3d(q_i, g)
        if self.grid.viscous:
            u = np.zeros_like(u)
            v = np.zeros_like(v)
            w = np.zeros_like(w)
        else:
            n = self._wall_normals[face]
            vn = u * n[..., 0] + v * n[..., 1] + w * n[..., 2]
            u = u - vn * n[..., 0]
            v = v - vn * n[..., 1]
            w = w - vn * n[..., 2]
        self.q[bc.face_slicer(face, ndim)] = conservative3d(
            rho, u, v, w, p, g
        )

    def surface_forces(self, face: str | None = None) -> dict:
        """Pressure force on a wall face (default: the first wall)."""
        walls = self.grid.wall_faces()
        if not walls:
            raise ValueError(f"grid {self.grid.name!r} has no wall")
        face = face or walls[0].face
        g = self.config.gas.gamma
        _, _, _, _, p = primitive3d(self.q, g)
        p_wall = p[bc.face_slicer(face, 3)]
        wall_xyz = self.xyz[bc.face_slicer(face, 3)]
        # Face-cell area vectors from corner cross products.
        d1 = wall_xyz[1:, :-1] - wall_xyz[:-1, :-1]
        d2 = wall_xyz[:-1, 1:] - wall_xyz[:-1, :-1]
        area = np.cross(d1, d2)
        n = self._wall_normals[face][:-1, :-1]
        # Orient the area vectors along the into-body direction (-n).
        sign = np.sign(np.einsum("...i,...i->...", area, n))
        area *= -np.where(sign == 0, 1.0, sign)[..., None]
        p_mid = 0.25 * (
            p_wall[:-1, :-1] + p_wall[1:, :-1]
            + p_wall[:-1, 1:] + p_wall[1:, 1:]
        )
        force = (p_mid[..., None] * area).reshape(-1, 3).sum(axis=0)
        return {"fx": float(force[0]), "fy": float(force[1]),
                "fz": float(force[2])}
