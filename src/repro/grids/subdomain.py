"""Index-space boxes and subdomain descriptors.

The static load balancer (Algorithm 1) splits each component grid's
index space into near-cubic boxes; each box becomes the working set of
one processor.  :func:`interior_face_points` measures the halo traffic a
box generates — the quantity the prime-factor decomposition minimises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Half-open index-space box: lo inclusive, hi exclusive."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi rank mismatch")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty box {self.lo}..{self.hi}")

    @classmethod
    def whole(cls, dims: tuple[int, ...]) -> "Box":
        return cls(tuple(0 for _ in dims), tuple(dims))

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def npoints(self) -> int:
        return int(np.prod(self.shape))

    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(l, h) for l, h in zip(self.lo, self.hi))

    def split(self, axis: int, nparts: int) -> list["Box"]:
        """Split along one axis into ``nparts`` near-equal boxes."""
        n = self.shape[axis]
        if nparts > n:
            raise ValueError(f"cannot split extent {n} into {nparts} parts")
        # Near-equal integer partition: first (n % nparts) parts get one extra.
        base, extra = divmod(n, nparts)
        out = []
        start = self.lo[axis]
        for p in range(nparts):
            size = base + (1 if p < extra else 0)
            lo = list(self.lo)
            hi = list(self.hi)
            lo[axis] = start
            hi[axis] = start + size
            out.append(Box(tuple(lo), tuple(hi)))
            start += size
        return out


def interior_face_points(box: Box, grid_dims: tuple[int, ...]) -> int:
    """Points on box faces interior to the grid — i.e. faces that abut a
    neighbouring subdomain and must be exchanged each sweep.

    Faces lying on the physical grid boundary generate no halo traffic.
    """
    total = 0
    shape = box.shape
    for axis in range(box.ndim):
        face_area = int(np.prod([s for a, s in enumerate(shape) if a != axis]))
        if box.lo[axis] > 0:
            total += face_area
        if box.hi[axis] < grid_dims[axis]:
            total += face_area
    return total


@dataclass(frozen=True)
class Subdomain:
    """One processor's portion of one component grid."""

    grid_index: int
    rank: int
    box: Box

    @property
    def npoints(self) -> int:
        return self.box.npoints
