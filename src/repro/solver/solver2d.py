"""Per-component-grid 2-D Navier-Stokes solver.

One :class:`Solver2D` owns the flow state of one component grid —
exactly the unit of work OVERFLOW assigns to a processor group.  Each
:meth:`step` performs the paper's step (1): residual evaluation,
factored implicit update, physical boundary conditions.  Intergrid
boundary values arrive from outside via :meth:`set_fringe`; hole points
(cut by the connectivity solver) are masked through :meth:`set_iblank`.

Moving grids call :meth:`move_to` with new coordinates each timestep;
metrics are recomputed (grids move rigidly, so shapes never change).
"""

from __future__ import annotations

import numpy as np

from repro.grids.gridmetrics import metrics2d
from repro.grids.structured import CurvilinearGrid
from repro.solver import boundary as bc
from repro.solver.adi import factored_update
from repro.solver.flux import inviscid_residual, spectral_radii
from repro.solver.state import FlowConfig, primitive, sanity_check
from repro.solver.turbulence import baldwin_lomax
from repro.solver.viscous import laminar_viscosity, viscous_residual

_GHOSTS = 2


class ComponentSolver:
    """What the 2-D and 3-D solvers share: the flow state of one
    component grid, its rigid motion, intergrid boundary injection and
    the hole mask.  A subclass sets its geometry up in ``_setup_geometry``."""

    def __init__(self, grid: CurvilinearGrid, config: FlowConfig, qinf: np.ndarray):
        self.grid = grid
        self.config = config
        self._setup_geometry(grid.xyz)
        self.q = np.broadcast_to(qinf, grid.dims + qinf.shape).copy()
        self.qinf = qinf
        self.iblank = np.ones(grid.dims, dtype=np.int8)
        self._frozen = qinf.copy()
        self.mu_laminar = (
            laminar_viscosity(config.mach, config.reynolds)
            if grid.viscous
            else 0.0
        )
        self.step_count = 0

    def move_to(self, xyz: np.ndarray) -> None:
        """Update node coordinates after rigid grid motion."""
        if xyz.shape != self.grid.xyz.shape:
            raise ValueError("moving a grid cannot change its shape")
        self.grid = self.grid.with_coordinates(xyz)
        self._setup_geometry(xyz)

    def set_fringe(self, flat_indices: np.ndarray, values: np.ndarray) -> None:
        """Inject interpolated intergrid boundary values (step 3 of the
        paper's loop feeding step 1 of the next)."""
        flat_indices = np.asarray(flat_indices, dtype=np.int64)
        q_flat = self.q.reshape(-1, self.q.shape[-1])
        q_flat[flat_indices] = values

    def set_iblank(self, iblank: np.ndarray) -> None:
        """Install a hole mask (1 = active, 0 = hole)."""
        iblank = np.asarray(iblank, dtype=np.int8)
        if iblank.shape != self.grid.dims:
            raise ValueError("iblank shape mismatch")
        self.iblank = iblank

    def _commit(self, dq: np.ndarray, dt: float) -> dict:
        """Add a step's update ``dq`` to the active points, then the
        physical boundary conditions; returns the step's report."""
        active = (self.iblank == 1)[..., None]
        self.q += np.where(active, dq, 0.0)
        # Hole points stay frozen at a benign state.
        self.q[self.iblank == 0] = self._frozen
        self._apply_physical_bcs()
        sanity_check(self.q, self.config.gas.gamma, where=f"grid {self.grid.name!r}")
        self.step_count += 1
        res = float(np.sqrt(np.mean(dq[..., 0] ** 2))) / max(dt, 1e-300)
        return {"dt": dt, "residual": res}


class Solver2D(ComponentSolver):
    """Implicit compressible flow solver on one curvilinear grid."""

    def __init__(self, grid: CurvilinearGrid, config: FlowConfig):
        if grid.ndim != 2:
            raise ValueError("Solver2D needs a 2-D grid")
        self.i_periodic = any(
            b.kind == "periodic" and b.face in ("imin", "imax")
            for b in grid.boundaries
        )
        super().__init__(grid, config, config.freestream())

    def _setup_geometry(self, xyz: np.ndarray) -> None:
        self.xyz = np.ascontiguousarray(xyz)
        if self.i_periodic:
            padded = bc.wrap_periodic(self.xyz, _GHOSTS)
            self.metrics = metrics2d(padded)
        else:
            self.metrics = metrics2d(self.xyz)
        self._wall_normals = {
            b.face: bc.wall_normals(self.xyz, b.face)
            for b in self.grid.boundaries
            if b.kind == "wall"
        }

    def timestep(self) -> float:
        """CFL-limited implicit timestep from the spectral radii."""
        g = self.config.gas.gamma
        q = self._padded_q()
        lam_xi, lam_eta = spectral_radii(q, self.metrics, g)
        dt_local = (
            self.config.cfl * self.metrics.jac_abs / (lam_xi + lam_eta + 1e-300)
        )
        return float(dt_local.min())

    def step(self, dt: float | None = None) -> dict:
        """Advance one implicit timestep; returns step diagnostics."""
        cfg = self.config
        g = cfg.gas.gamma
        if dt is None:
            dt = self.timestep()

        q = self._padded_q()
        m = self.metrics
        r = inviscid_residual(q, m, g, cfg.k2, cfg.k4)
        mu_t = None
        if self.grid.viscous:
            if self.grid.turbulence:
                mu_t = baldwin_lomax(
                    q, self._padded_xyz(), m, g, self.mu_laminar
                )
            r -= viscous_residual(
                q, m, g, cfg.gas.prandtl, self.mu_laminar, mu_t
            )

        rhs = -dt * r / m.jac[..., None]  # signed J: orientation-correct
        lam_xi, lam_eta = spectral_radii(q, m, g)
        nu_xi = dt * lam_xi / m.jac_abs
        nu_eta = dt * lam_eta / m.jac_abs
        dq = factored_update(rhs, nu_xi, nu_eta)
        dq = self._unpad(dq)

        return self._commit(dq, dt)

    # ------------------------------------------------------------------

    def _padded_q(self) -> np.ndarray:
        if self.i_periodic:
            return bc.wrap_periodic(self.q, _GHOSTS)
        return self.q

    def _padded_xyz(self) -> np.ndarray:
        if self.i_periodic:
            return bc.wrap_periodic(self.xyz, _GHOSTS)
        return self.xyz

    def _unpad(self, arr: np.ndarray) -> np.ndarray:
        if self.i_periodic:
            return bc.unwrap_periodic(arr, _GHOSTS)
        return arr

    def _apply_physical_bcs(self) -> None:
        g = self.config.gas.gamma
        for b in self.grid.boundaries:
            if b.kind == "wall":
                bc.apply_wall(
                    self.q, b.face, self.grid.viscous, g,
                    normals=self._wall_normals[b.face],
                )
            elif b.kind == "farfield":
                bc.apply_farfield(self.q, b.face, self.qinf)
            # overset faces are set externally; periodic handled below
        if self.i_periodic:
            bc.apply_periodic_seam(self.q)

    def surface_forces(self, ref_point=(0.25, 0.0)) -> dict:
        """Integrate wall pressure into force and pitching moment.

        Returns physical-axis fx, fy and moment about ``ref_point``
        (positive counter-clockwise).  Requires a jmin wall.
        """
        if not any(
            b.face == "jmin" and b.kind == "wall" for b in self.grid.boundaries
        ):
            raise ValueError(f"grid {self.grid.name!r} has no jmin wall")
        g = self.config.gas.gamma
        _, _, _, p = primitive(self.q, g)
        wall_xy = self.xyz[:, 0]
        p_wall = p[:, 0]
        seg = wall_xy[1:] - wall_xy[:-1]
        p_mid = 0.5 * (p_wall[1:] + p_wall[:-1])
        mid = 0.5 * (wall_xy[1:] + wall_xy[:-1])
        # Rotate tangent by -90deg, then orient into the body: the +j
        # direction points into the fluid, so the into-body normal has
        # negative projection onto (first-off-wall - wall).
        normal = np.stack([seg[:, 1], -seg[:, 0]], axis=-1)
        off = 0.5 * (self.xyz[1:, 1] + self.xyz[:-1, 1]) - mid
        flip = np.sign(np.einsum("ij,ij->i", normal, off))
        normal *= -np.where(flip == 0, 1.0, flip)[:, None]
        df = p_mid[:, None] * normal
        force = df.sum(axis=0)
        rel = mid - np.asarray(ref_point, dtype=float)
        moment = float(np.sum(rel[:, 0] * df[:, 1] - rel[:, 1] * df[:, 0]))
        return {"fx": float(force[0]), "fy": float(force[1]), "moment": moment}

    def pressure_coefficient(self) -> np.ndarray:
        """Wall Cp = (p - p_inf) / (0.5 rho_inf V_inf^2) along the jmin
        wall (requires one).  The stagnation value is ~1 + O(M^2)."""
        if not any(
            b.face == "jmin" and b.kind == "wall" for b in self.grid.boundaries
        ):
            raise ValueError(f"grid {self.grid.name!r} has no jmin wall")
        g = self.config.gas.gamma
        _, _, _, p = primitive(self.q, g)
        p_inf = 1.0 / g
        q_inf = 0.5 * self.config.mach**2  # rho_inf = 1, V_inf = M
        return (p[:, 0] - p_inf) / max(q_inf, 1e-300)

    def force_coefficients(self, ref_point=(0.25, 0.0), chord: float = 1.0) -> dict:
        """Lift/drag/moment coefficients in the wind frame (normalised
        by 0.5 rho_inf V_inf^2 * chord)."""
        f = self.surface_forces(ref_point)
        q_inf = 0.5 * self.config.mach**2 * chord
        a = self.config.alpha
        ca, sa = np.cos(a), np.sin(a)
        drag = f["fx"] * ca + f["fy"] * sa
        lift = -f["fx"] * sa + f["fy"] * ca
        return {
            "cl": lift / max(q_inf, 1e-300),
            "cd": drag / max(q_inf, 1e-300),
            "cm": f["moment"] / max(q_inf * chord, 1e-300),
        }
