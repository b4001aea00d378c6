"""The hole-cutting kernels as they were before the candidate-pair
rewrite: the per-edge ray-casting loop and the ``np.roll`` fringe.
Reference only — ``test_holecut_igbp.py`` holds the kernels in
``repro.connectivity.holecut`` to ``np.array_equal`` results against
these on generated input."""

import numpy as np


def points_in_polygon(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Vectorised ray casting: which ``points`` (n, 2) lie inside the
    closed ``polygon`` (m, 2)?  The polygon need not repeat its first
    vertex."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    poly = np.asarray(polygon, dtype=float)
    if np.allclose(poly[0], poly[-1]):
        poly = poly[:-1]
    x, y = pts[:, 0], pts[:, 1]
    x0, y0 = poly[:, 0], poly[:, 1]
    x1 = np.roll(x0, -1)
    y1 = np.roll(y0, -1)
    inside = np.zeros(pts.shape[0], dtype=bool)
    for k in range(poly.shape[0]):
        cond = (y0[k] > y) != (y1[k] > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = (x1[k] - x0[k]) * (y - y0[k]) / (y1[k] - y0[k]) + x0[k]
        inside ^= cond & (x < xcross)
    return inside


def hole_fringe_mask(iblank: np.ndarray) -> np.ndarray:
    """Active points adjacent (face-neighbour) to a hole point: these
    become IGBPs that need donors."""
    hole = iblank == 0
    fringe = np.zeros_like(hole)
    for axis in range(iblank.ndim):
        for shift in (-1, 1):
            rolled = np.roll(hole, shift, axis=axis)
            # np.roll wraps; kill the wrapped slice.
            sl: list = [slice(None)] * iblank.ndim
            sl[axis] = 0 if shift == 1 else -1
            rolled[tuple(sl)] = False
            fringe |= rolled
    return fringe & (iblank == 1)
