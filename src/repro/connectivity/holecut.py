"""Hole cutting: blank points of one grid that fall inside the solid
bodies of other grids (paper section 2.0: "Holes are cut in grids which
intersect solid surfaces").

In 2-D the body is the closed wall curve of a component grid and the
inside test is an exact vectorised ray-casting point-in-polygon test.
In 3-D an exact test against an arbitrary curvilinear wall surface is
replaced by the classic box-cut approximation: points inside the
(slightly shrunk) bounding box of the wall surface are blanked.  The
substitution is documented in DESIGN.md; it preserves what the paper's
experiments need — a realistic population of hole-fringe IGBPs.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache

import numpy as np

from repro.grids.bbox import AABB
from repro.grids.structured import CurvilinearGrid


def points_in_polygon(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Vectorised ray casting: which ``points`` (n, 2) lie inside the
    closed ``polygon`` (m, 2)?  The polygon need not repeat its first
    vertex."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    poly = np.asarray(polygon, dtype=float)
    if np.allclose(poly[0], poly[-1]):
        poly = poly[:-1]
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.concatenate((poly[1:], poly[:1])).T
    inside = np.zeros(pts.shape[0], dtype=bool)
    # Point blocks bound the (edges, points) straddle mask.
    block = max(1, 4_000_000 // max(1, poly.shape[0]))
    for start in range(0, inside.size, block):
        x, y = pts[start : start + block].T
        # Half-open crossing rule: an edge counts for a point iff exactly
        # one endpoint lies strictly above it, so a ray through a vertex
        # meets one of the two edges there and horizontal edges (which
        # never straddle) none — no zero division below.
        e, p = np.nonzero((y0[:, None] > y) != (y1[:, None] > y))
        xcross = (x1[e] - x0[e]) * (y[p] - y0[e]) / (y1[e] - y0[e]) + x0[e]
        crossings = np.bincount(p[x[p] < xcross], minlength=x.size)
        inside[start : start + block] = crossings & 1
    return inside


def cut_holes(
    grids: list[CurvilinearGrid],
    inflate: float = 0.0,
    receivers: Iterable[int] | None = None,
) -> list:
    """Compute iblank masks (1 = active, 0 = hole) for the ``receivers``
    (grid indices; default every grid), ``None`` for the other grids.

    Each grid with a wall face cuts holes in every *other* grid:
    2-D: exact polygon containment of the wall curve (optionally
    inflated outward is not supported — inflate applies to 3-D boxes);
    3-D: containment in the wall-surface bounding box shrunk/inflated
    by ``inflate`` (negative shrinks).
    """
    walls = [g.wall_faces() for g in grids]
    box_of = cache(lambda i: grids[i].bounding_box())  # only those needed
    iblanks: list = [None] * len(grids)
    for gi in range(len(grids)) if receivers is None else receivers:
        grid = grids[gi]
        iblanks[gi] = np.ones(grid.dims, dtype=np.int8)
        mask = iblanks[gi].reshape(-1)
        for bi, body in enumerate(grids):
            # Cheap cull: a grid that nowhere overlaps the body grid
            # cannot contain any of its wall surface.
            if bi == gi or not walls[bi] or not box_of(gi).intersects(box_of(bi)):
                continue
            pts = grid.points_flat()
            for wall in walls[bi]:
                if grid.ndim == 2 and body.ndim == 2:
                    poly = body.face_points(wall.face)
                    cand = np.flatnonzero(AABB.of_points(poly).contains(pts))
                    if cand.size:
                        mask[cand[points_in_polygon(pts[cand], poly)]] = 0
                else:
                    box = AABB.of_points(body.face_points(wall.face))
                    margin = inflate - 0.02 * float(box.extent.max())
                    try:
                        box = box.inflated(margin)
                    except ValueError:
                        continue  # degenerate surface: nothing to cut
                    mask[box.contains(pts)] = 0
    return iblanks


def hole_fringe_mask(iblank: np.ndarray) -> np.ndarray:
    """Active points adjacent (face-neighbour) to a hole point: these
    become IGBPs that need donors."""
    hole = iblank == 0
    fringe = np.zeros_like(hole)
    if not hole.any():
        return fringe
    for axis in range(iblank.ndim):
        lo: list = [slice(None)] * iblank.ndim
        hi = list(lo)
        lo[axis], hi[axis] = slice(None, -1), slice(1, None)
        # Shifted slices: nothing wraps across the ends.
        fringe[tuple(hi)] |= hole[tuple(lo)]
        fringe[tuple(lo)] |= hole[tuple(hi)]
    return fringe & (iblank == 1)
