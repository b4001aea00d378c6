"""Axis-aligned bounding boxes.

Bounding boxes drive the DCF3D search-request routing (paper section
2.2): each processor broadcasts the box of its grid portion at start-up,
and search requests are sent to the processor whose box contains the
inter-grid boundary point.  Boxes are inflated by a small margin so that
points near a subdomain face are still routed somewhere useful.
"""

from __future__ import annotations

import numpy as np


class AABB:
    """Axis-aligned box in 2-D or 3-D physical space."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo/hi must be 1-D arrays of equal length")
        if np.any(self.hi < self.lo):
            raise ValueError(f"empty box: lo={self.lo}, hi={self.hi}")

    @classmethod
    def of_points(cls, points: np.ndarray) -> "AABB":
        """Smallest box containing ``points`` of shape (n, ndim)."""
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            raise ValueError("cannot bound zero points")
        # One reduction per coordinate column: reducing (n, ndim) along
        # axis 0 has inner extent ndim and runs an order of magnitude
        # slower for the same answer.
        cols = [pts[..., d] for d in range(pts.shape[-1])]
        return cls([c.min() for c in cols], [c.max() for c in cols])

    @property
    def ndim(self) -> int:
        return self.lo.shape[0]

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def inflated(self, margin: float) -> "AABB":
        """Box grown by ``margin`` on every side (may be relative: a
        negative margin shrinks, which can raise on over-shrink)."""
        return AABB(self.lo - margin, self.hi + margin)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorised membership test; returns a bool array of len(points)."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.ndim:
            raise ValueError(f"points are not {self.ndim}-D: {pts.shape}")
        inside = np.ones(pts.shape[:-1], dtype=bool)
        for d in range(self.ndim):  # per axis, as in of_points
            x = pts[..., d]
            inside &= (x >= self.lo[d]) & (x <= self.hi[d])
        return bool(inside) if pts.ndim == 1 else inside

    def intersects(self, other: "AABB") -> bool:
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    def __repr__(self) -> str:
        return f"AABB(lo={self.lo.tolist()}, hi={self.hi.tolist()})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, AABB):
            return NotImplemented
        return bool(
            np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)
        )

    def __hash__(self):  # boxes are mutable-array holders; forbid hashing
        raise TypeError("AABB is unhashable")
