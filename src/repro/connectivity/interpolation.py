"""Multilinear interpolation from donor cells.

Once the donor search produces (cell, frac) pairs, boundary values are
interpolated from the 2**ndim donor-cell corners with the matching
multilinear weights — the interpolation coefficients the connectivity
solution exists to provide (paper section 2.0).
"""

from __future__ import annotations

import numpy as np


def interpolation_weights(fracs: np.ndarray) -> np.ndarray:
    """Corner weights for fractional cell coordinates.

    ``fracs`` has shape (n, ndim); the result has shape (n, 2**ndim)
    with corners ordered dimension-0 fastest (matching
    :func:`corner_offsets`).  Weights are non-negative and sum to one.
    """
    fr = np.atleast_2d(np.asarray(fracs, dtype=float))
    n, ndim = fr.shape
    w = np.ones((n, 2**ndim))
    for corner in range(2**ndim):
        for d in range(ndim):
            bit = (corner >> d) & 1
            w[:, corner] *= fr[:, d] if bit else (1 - fr[:, d])
    return w


def corner_offsets(ndim: int) -> np.ndarray:
    """Integer corner offsets, shape (2**ndim, ndim), dim-0 fastest."""
    return (np.arange(2**ndim)[:, None] >> np.arange(ndim)) & 1


def interpolate(
    field: np.ndarray, cells: np.ndarray, fracs: np.ndarray
) -> np.ndarray:
    """Interpolate node ``field`` (shape (*dims, nvar) or (*dims,)) at
    donor (cell, frac) pairs; returns (n, nvar) or (n,)."""
    scalar = field.ndim == cells.shape[1]
    if scalar:
        field = field[..., None]
    cells = np.atleast_2d(np.asarray(cells, dtype=np.int64))
    w = interpolation_weights(fracs)  # (n, 2**ndim)
    offs = corner_offsets(cells.shape[1])
    out = np.zeros((cells.shape[0], field.shape[-1]))
    for corner, off in enumerate(offs):
        idx = tuple((cells + off).T)
        out += w[:, corner : corner + 1] * field[idx]
    return out[:, 0] if scalar else out
