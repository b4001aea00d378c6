"""Inter-grid boundary point (IGBP) identification.

IGBPs are the points whose values must be interpolated from another
grid each timestep (paper section 2.2): the points on faces flagged
``overset`` (the outer fringe of a component grid embedded in a larger
one) plus the fringe of active points ringing every hole cut by
:mod:`repro.connectivity.holecut`.

The ratio of IGBPs to gridpoints is the paper's predictor of how
expensive the connectivity solution is relative to the flow solution
(44e-3 airfoil, 33e-3 delta wing, 66e-3 store case).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.connectivity.holecut import hole_fringe_mask
from repro.grids.structured import CurvilinearGrid


@dataclass
class IgbpSet:
    """The IGBPs of one receiver grid."""

    grid_index: int
    flat_indices: np.ndarray  # (n,) into the grid's flattened points
    points: np.ndarray        # (n, ndim) physical coordinates

    @property
    def count(self) -> int:
        return int(self.flat_indices.shape[0])


def find_igbps(
    grid: CurvilinearGrid,
    grid_index: int,
    iblank: np.ndarray | None = None,
    fringe_layers: int = 1,
) -> IgbpSet:
    """All IGBPs of one grid: overset-face points + hole fringe.

    ``fringe_layers`` widens the overset fringe (the paper's grids
    overlap "by one or more grid cells").
    """
    need = np.zeros(grid.dims, dtype=bool)
    for b in grid.boundaries:
        if b.kind != "overset":
            continue
        axis = {"i": 0, "j": 1, "k": 2}[b.face[0]]
        sl: list = [slice(None)] * len(grid.dims)
        if b.face.endswith("min"):
            sl[axis] = slice(0, fringe_layers)
        else:
            sl[axis] = slice(-fringe_layers, None)
        need[tuple(sl)] = True
    if iblank is not None:
        fringe = hole_fringe_mask(iblank)
        for _ in range(fringe_layers - 1):
            grown = fringe.copy()
            hole_or_fringe = (iblank == 0) | fringe
            grown |= hole_fringe_mask(np.where(hole_or_fringe, 0, 1))
            fringe = grown & (iblank == 1)
        need |= fringe
        need &= iblank == 1  # hole points themselves receive nothing
    flat = np.nonzero(need.reshape(-1))[0].astype(np.int64)
    return IgbpSet(grid_index, flat, grid.points_flat()[flat])


def igbp_ratio(igbp_sets: list[IgbpSet], grids: list[CurvilinearGrid]) -> float:
    """Composite IGBPs / gridpoints — the paper's per-case statistic."""
    total_igbp = sum(s.count for s in igbp_sets)
    total_pts = sum(g.npoints for g in grids)
    return total_igbp / total_pts if total_pts else 0.0
