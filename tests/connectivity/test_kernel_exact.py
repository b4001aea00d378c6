"""Bit-exactness oracle for the batched Newton kernel of ``donor_search``.

The production kernel (one stacked trilinear evaluation per Newton
iteration, gather-table adjugate, one loop for 2-D / 3-D / walk / probe)
promises *exactly* the floating-point results of the kernel it replaced
— every simulated time in the repo is a function of ``steps``, and every
interpolated value of ``cells`` / ``fracs``.  The replaced module is kept
verbatim next to this file (``_reference_donorsearch.py``, tests only)
and both are driven over generated curvilinear grids; all five
``DonorSearchResult`` arrays must be byte-equal.

This file is the gate for touching the operation orders the module
docstring of ``repro.connectivity.donorsearch`` lists as load-bearing.
It runs in the ordinary ``tests`` CI matrix, which is where a numpy
whose reduction order differs would show.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity.donorsearch import donor_search
from tests.connectivity._reference_donorsearch import (
    donor_search as reference_search,
)

FIELDS = ("cells", "fracs", "found", "steps", "escaped")


def wavy(dims, amp, freq, jitter, rng):
    """Index-space lattice + sinusoidal waves + random node jitter."""
    axes = [np.arange(d, dtype=float) for d in dims]
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return x + amp * np.sin(freq * x[..., ::-1]) + rng.uniform(
        -jitter, jitter, x.shape
    )


def seam(dims, jitter, rng):
    """O-grid style: axis 0 wraps around an annulus and the seam node
    line is stored twice (i = 0 and i = ni-1 coincide); 3-D extrudes the
    annulus along a wavy z."""
    ni, nj = max(dims[0], 6), dims[1]
    theta = 2.0 * np.pi * np.arange(ni) / (ni - 1)
    rad = 1.0 + 0.5 * np.arange(nj)
    xy = np.stack(
        [np.outer(np.cos(theta), rad), np.outer(np.sin(theta), rad)], axis=-1
    )
    if len(dims) == 3:
        nk = dims[2]
        z = np.arange(nk, dtype=float) + 0.1 * np.sin(theta)[:, None, None]
        xy = np.concatenate(
            [
                np.broadcast_to(xy[:, :, None, :], (ni, nj, nk, 2)),
                np.broadcast_to(z, (ni, nj, nk))[..., None],
            ],
            axis=-1,
        )
    xy = xy + rng.uniform(-jitter, jitter, xy.shape)
    xy[-1] = xy[0]
    return xy


def assert_same(new, old, tag):
    for f in FIELDS:
        a, b = getattr(new, f), getattr(old, f)
        assert a.dtype == b.dtype and a.shape == b.shape, (tag, f)
        assert a.tobytes() == b.tobytes(), (tag, f)


def check_case(dims, amp, freq, jitter, n, seed, o_grid=False):
    """Old vs new over the search modes; returns how many points the
    full-grid search found and lost, and how many of the found only the
    opposite-edge retry / last-resort probe recovered."""
    rng = np.random.default_rng(seed)
    ndim = len(dims)
    xyz = seam(dims, jitter, rng) if o_grid else wavy(dims, amp, freq, jitter, rng)
    lo_x = xyz.reshape(-1, ndim).min(axis=0)
    hi_x = xyz.reshape(-1, ndim).max(axis=0)
    # Half the points in the bounding box, half in a padded one: inside
    # and outside the hull, plenty of both on every grid size.
    pad = np.where(rng.random((n, 1)) < 0.5, 0.0, 0.1 * (hi_x - lo_x) + 0.4)
    pts = rng.uniform(lo_x - pad, hi_x + pad, (n, ndim))

    # Full grid, cold: the opposite-edge retry and the last-resort
    # probe run for whatever fell off the hull.
    cold = reference_search(xyz, pts)
    assert_same(donor_search(xyz, pts), cold, "cold")

    # Warm: previous donors knocked off by up to two cells, some rows
    # without a hint (negative => seeded like a cold point).
    g = cold.cells + rng.integers(-2, 3, cold.cells.shape)
    g[rng.random(n) < 0.3] = -1
    assert_same(
        donor_search(xyz, pts, guesses=g),
        reference_search(xyz, pts, guesses=g),
        "warm",
    )

    # Windowed (distributed) searches: escapes are forwarding hints.
    max_cell = np.array(xyz.shape[:-1]) - 2
    lo = rng.integers(0, max_cell + 1)
    hi = rng.integers(lo, max_cell + 1)
    assert_same(
        donor_search(xyz, pts, cell_lo=lo, cell_hi=hi),
        reference_search(xyz, pts, cell_lo=lo, cell_hi=hi),
        "windowed",
    )
    assert_same(
        donor_search(xyz, pts, guesses=g, cell_lo=lo, cell_hi=hi),
        reference_search(xyz, pts, guesses=g, cell_lo=lo, cell_hi=hi),
        "windowed-warm",
    )
    # The whole grid as an explicit window: the plain walk, no recovery.
    walk = reference_search(xyz, pts, cell_lo=0 * max_cell, cell_hi=max_cell)
    assert_same(
        donor_search(xyz, pts, cell_lo=0 * max_cell, cell_hi=max_cell),
        walk,
        "whole-grid window",
    )
    found = int(cold.found.sum())
    return found, n - found, int((cold.found & ~walk.found).sum())


def test_fixed_seeds_match_reference():
    """The Hypothesis check below with pinned draws: a failure here is
    reproducible without an example database.  Also guards the oracle
    against going vacuous — hits, orphans and points only the retry /
    probe recovered must all occur."""
    rng = np.random.default_rng(2024)
    totals = np.zeros(3, dtype=int)
    for seed in range(12):
        ndim = 2 if seed % 3 == 0 else 3
        dims = tuple(int(d) for d in rng.integers(3, 15, ndim))
        totals += check_case(
            dims,
            amp=rng.uniform(0.0, 0.3),
            freq=rng.uniform(0.3, 1.5),
            jitter=rng.uniform(0.0, 0.12),
            n=int(rng.integers(1, 301)),
            seed=seed,
            o_grid=seed % 4 == 3,
        )
    found, orphans, recovered = totals
    assert found > 500 and orphans > 500 and recovered > 10


@settings(max_examples=30, deadline=None)
@given(
    dims=st.lists(st.integers(3, 14), min_size=2, max_size=3).map(tuple),
    amp=st.floats(0.0, 0.3),
    freq=st.floats(0.3, 1.5),
    jitter=st.floats(0.0, 0.12),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    o_grid=st.booleans(),
)
def test_generated_grids_match_reference(dims, amp, freq, jitter, n, seed, o_grid):
    check_case(dims, amp, freq, jitter, n, seed, o_grid)


@pytest.mark.parametrize("ndim", [2, 3])
def test_single_point_batches_match_reference(ndim):
    """n = 1 is the commonest batch of the distributed search (one
    forwarded point per SEARCH frame)."""
    rng = np.random.default_rng(7)
    xyz = wavy((9,) * ndim, 0.2, 0.8, 0.08, rng)
    for pt in rng.uniform(-1.0, 9.0, (24, ndim)):
        assert_same(donor_search(xyz, pt), reference_search(xyz, pt[None]), "n=1")
