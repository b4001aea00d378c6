"""Flop/byte cost model for charging simulated machine time.

The performance benchmarks (Tables 1-6) run the paper's *parallel
algorithms* for real on the simulated machine but charge the *flow
solver arithmetic* through this model instead of executing a 1M-point
3-D Navier-Stokes solve in Python per partition per timestep.

Calibration: the paper's own measurements give the per-point cost.
Table 1/2 (airfoil, 12 nodes): 18.6 Mflop/s/node x 0.285 s/step x 12
nodes / 63.6K points ~ 1000 flops/point/step including connectivity,
so the 2-D viscous flow solve is ~900 flops/point/step.  3-D adds a
third sweep, a third flux direction, and more metric terms: roughly
1.8x per point.  The defaults below follow that calibration; every
constant can be overridden for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkModel:
    """Cost constants for the flow, motion and connectivity phases."""

    # --- flow solver (per gridpoint per timestep) ---
    euler_flops_per_point: float = 800.0
    viscous_extra_flops: float = 260.0
    turbulence_extra_flops: float = 150.0
    ndim3_factor: float = 1.9          # 3-D / 2-D per-point cost ratio
    halo_exchanges_per_step: int = 2   # one per factored sweep direction
    bytes_per_point: int = 32          # 4 conservative vars, float64

    # --- grid motion (per gridpoint per timestep) ---
    motion_flops_per_point: float = 40.0  # rigid transform + metric update

    # --- connectivity (donor search) ---
    # Calibrated against the paper's own tables: Table 1 implies about
    # 5000 flops per IGBP per step for the 2-D airfoil (14% of 0.285 s
    # on 12 nodes over 2816 IGBPs) and Table 4 about 9000 flops/IGBP in
    # 3-D.  A pure Newton walk is a fraction of that; the rest is IGBP
    # list formation/tagging on the requester and stencil-quality
    # checks, coefficient computation and packing on the donor.
    search_step_flops: float = 400.0   # one stencil-walk/Newton iteration
    igbp_request_flops: float = 500.0  # requester-side cost per point sent
    igbp_service_flops: float = 1200.0  # donor-side fixed cost per point
    igbp_request_bytes: int = 40       # point coords + ids in a search msg
    donor_reply_bytes: int = 48        # donor cell + interpolation weights
    interp_flops_per_igbp: float = 30.0  # evaluating the interpolant
    holecut_flops_per_point: float = 60.0  # inside/outside tests per point

    # ------------------------------------------------------------------

    def flow_flops_per_point(
        self, viscous: bool, turbulence: bool, ndim: int
    ) -> float:
        """Per-point per-step flow-solver arithmetic."""
        flops = self.euler_flops_per_point
        if viscous:
            flops += self.viscous_extra_flops
        if turbulence:
            flops += self.turbulence_extra_flops
        if ndim == 3:
            flops *= self.ndim3_factor
        return flops

    def flow_flops(
        self, npoints: int, viscous: bool, turbulence: bool, ndim: int
    ) -> float:
        """Flow-solver flops for one subdomain for one timestep."""
        return npoints * self.flow_flops_per_point(viscous, turbulence, ndim)

    def halo_bytes(self, halo_points: int) -> int:
        """Bytes exchanged per halo face-swap round."""
        return halo_points * self.bytes_per_point

    def motion_flops(self, npoints: int) -> float:
        return npoints * self.motion_flops_per_point

    def search_flops(self, steps: int) -> float:
        """Donor-search arithmetic for a given number of walk steps."""
        return steps * self.search_step_flops


DEFAULT_WORK_MODEL = WorkModel()
