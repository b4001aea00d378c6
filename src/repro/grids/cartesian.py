"""Uniform Cartesian grids — the "seven parameter" grids of section 5.

A uniform Cartesian grid is fully described by its bounding box (six
numbers in 3-D) and its spacing (one number): the paper contrasts this
with curvilinear grids, which need coordinates and metrics stored per
point.  Donor lookup in a Cartesian grid is a closed-form floor/divide
— no stencil-walk search — which is why the adaptive off-body scheme's
connectivity is nearly free.
"""

from __future__ import annotations

import numpy as np

from repro.grids.bbox import AABB


class CartesianGrid:
    """Uniform Cartesian grid: origin + spacing + point counts."""

    def __init__(self, name: str, origin, spacing: float, dims, level: int = 0):
        self.name = name
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = float(spacing)
        self.dims = tuple(int(d) for d in dims)
        self.level = int(level)  # refinement level (adaptive scheme)
        if self.spacing <= 0:
            raise ValueError(f"spacing must be positive, got {spacing}")
        if len(self.dims) != self.origin.shape[0]:
            raise ValueError("origin and dims dimensionality mismatch")
        if any(d < 2 for d in self.dims):
            raise ValueError(f"need >= 2 points per direction, got {self.dims}")

    # ------------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def npoints(self) -> int:
        return int(np.prod(self.dims))

    @property
    def nparams(self) -> int:
        """Scalars needed to describe this grid (the paper's "seven
        parameters" in 3-D: bounding box + spacing)."""
        return 2 * self.ndim + 1

    def bounding_box(self) -> AABB:
        hi = self.origin + self.spacing * (np.array(self.dims) - 1)
        return AABB(self.origin, hi)

    def coordinates(self) -> np.ndarray:
        """Materialise node coordinates, shape (*dims, ndim)."""
        axes = [
            self.origin[a] + self.spacing * np.arange(self.dims[a])
            for a in range(self.ndim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.ascontiguousarray(np.stack(mesh, axis=-1))

    # ------------------------------------------------------------------
    # closed-form donor lookup
    # ------------------------------------------------------------------

    def locate(self, points: np.ndarray):
        """Donor cells and interpolation offsets for ``points``.

        Returns ``(cell, frac, inside)``: integer cell indices of shape
        (n, ndim), fractional offsets in [0, 1] within the cell, and a
        bool mask of points that fall inside the grid.  Cost is O(1) per
        point — the "very low cost" connectivity of section 5.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        rel = (pts - self.origin) / self.spacing
        cell = np.floor(rel).astype(np.int64)
        maxcell = np.array(self.dims) - 2
        inside = np.all((rel >= 0) & (rel <= np.array(self.dims) - 1), axis=-1)
        # Points exactly on the upper face belong to the last cell.
        cell = np.clip(cell, 0, maxcell)
        frac = rel - cell
        return cell, frac, inside

    def refined(self) -> "CartesianGrid":
        """Next refinement level: half the spacing over the same box."""
        dims = tuple(2 * (d - 1) + 1 for d in self.dims)
        return CartesianGrid(
            f"{self.name}+", self.origin, self.spacing / 2, dims, self.level + 1
        )

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.dims)
        return (
            f"CartesianGrid({self.name!r}, {dims}, h={self.spacing:g}, "
            f"level={self.level})"
        )
