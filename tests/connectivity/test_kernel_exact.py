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
docstring of ``repro.connectivity.donorsearch`` lists as load-bearing,
for the walk's closed-form finish of a walk that repeats a state
(folded grids make walks cycle until the step cap), and for the padded
corner-box certificate that lets the last-resort probe skip blocks no
row can hit (a soundness property over single cells, plus searches that
skip blocks and hit in the same call), and for the search being
row-wise: a row's five arrays do not depend on which other rows share
its batch, copies of it included, which lets the off-body step search
each distinct fringe point once.  It is also the gate for batching:
every problem the sweeps draw is searched once more as batches of one
``donor_search`` call, in shuffled order with others, and each batch's
arrays must be those of the reference run on it alone.
It runs in the ordinary ``tests`` CI matrix, which is where a numpy
whose reduction order differs would show.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectivity import donorsearch
from repro.connectivity.donorsearch import _map2d, _map3d, _may_hit, donor_search
from repro.connectivity.interpolation import corner_offsets
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


def fold(dims, amp, freq, jitter, rng):
    """A wavy grid folded back on itself along axis 0 (x -> |x - mid|):
    a point beyond the fold gets Newton solutions that point the walk
    back across it, cell after cell, until the step cap."""
    xyz = wavy(dims, amp, freq, jitter, rng)
    xyz[..., 0] = np.abs(xyz[..., 0] - (dims[0] - 1) / 2)
    return xyz


def assert_same(new, old, tag):
    for f in FIELDS:
        a, b = getattr(new, f), getattr(old, f)
        assert a.dtype == b.dtype and a.shape == b.shape, (tag, f)
        assert a.tobytes() == b.tobytes(), (tag, f)


def capped(res):
    """Rows that end neither found nor escaped with all 200 walk
    iterations spent — the only rows a walk's closed-form cycle finish
    writes."""
    return int((~res.found & ~res.escaped & (res.steps >= 200)).sum())


def probed_search(*args, **kw):
    """``donor_search`` recording each last-resort probe block as
    ``(rows, ran)``: its batch size and whether the certificate let its
    Newton solve run."""
    blocks = []

    def spy(corners, targets):
        may = _may_hit(corners, targets)
        blocks.append((len(targets), bool(may.any())))
        return may

    with mock.patch.object(donorsearch, "_may_hit", spy):
        return donor_search(*args, **kw), blocks


def probe_counts(res, blocks):
    """Skipped blocks and probe hits of one full-grid search of finite
    points: the probe's batch is every row still missing, so the rows it
    found are that batch less the rows missing at the end."""
    skipped = sum(not ran for _, ran in blocks)
    hits = blocks[0][0] - int((~res.found).sum()) if blocks else 0
    return skipped, hits


def check_batched(batches, rng):
    """One ``donor_search`` call over ``batches`` — ``(xyz, pts, guesses,
    cell_lo, cell_hi, reference)`` each — in shuffled batch order; each
    batch's five arrays must be byte-equal to its ``reference``, the
    reference search of that batch alone.  Cold batches travel as
    all-negative guesses, which seed exactly like ``guesses=None`` for
    finite points and non-empty windows."""
    order = rng.permutation(len(batches))
    sizes = [len(batches[b][1]) for b in order]
    hints = [
        np.full(batches[b][1].shape, -1) if batches[b][2] is None else batches[b][2]
        for b in order
    ]
    grids, pts, los, his = ([batches[b][f] for b in order] for f in (0, 1, 3, 4))
    res = donor_search(
        grids, np.concatenate(pts), np.concatenate(hints), cell_lo=los, cell_hi=his,
        batch=np.repeat(np.arange(len(order)), sizes),
    )
    for part, b in zip(res.split(sizes), order):
        assert_same(part, batches[b][5], ("batched", b))


def check_case(dims, amp, freq, jitter, n, seed, kind="wavy", pool=None):
    """Old vs new over the search modes on a ``kind`` grid (wavy, seam
    or fold), then all of them, a 1-row and an empty batch as batches of
    one call (appended to ``pool`` when given); returns how many points
    the full-grid search found and lost, how many of the found only the
    opposite-edge retry / last-resort probe recovered, how many rows the
    windowed walks left at the step cap, the cold search's skipped probe
    blocks and probe hits, and whether it had both."""
    rng = np.random.default_rng(seed)
    ndim = len(dims)
    if kind == "seam":
        xyz = seam(dims, jitter, rng)
    else:
        xyz = (fold if kind == "fold" else wavy)(dims, amp, freq, jitter, rng)
    lo_x = xyz.reshape(-1, ndim).min(axis=0)
    hi_x = xyz.reshape(-1, ndim).max(axis=0)
    # Half the points in the bounding box, half in a padded one: inside
    # and outside the hull, plenty of both on every grid size.
    pad = np.where(rng.random((n, 1)) < 0.5, 0.0, 0.1 * (hi_x - lo_x) + 0.4)
    pts = rng.uniform(lo_x - pad, hi_x + pad, (n, ndim))

    # Full grid, cold: the opposite-edge retry and the last-resort
    # probe run for whatever fell off the hull.
    cold = reference_search(xyz, pts)
    res, blocks = probed_search(xyz, pts)
    assert_same(res, cold, "cold")
    skipped, hits = probe_counts(res, blocks)

    # Warm: previous donors knocked off by up to two cells, some rows
    # without a hint (negative => seeded like a cold point).
    g = cold.cells + rng.integers(-2, 3, cold.cells.shape)
    g[rng.random(n) < 0.3] = -1
    warm = reference_search(xyz, pts, guesses=g)
    assert_same(donor_search(xyz, pts, guesses=g), warm, "warm")

    # Windowed (distributed) searches: escapes are forwarding hints.
    max_cell = np.array(xyz.shape[:-1]) - 2
    lo = rng.integers(0, max_cell + 1)
    hi = rng.integers(lo, max_cell + 1)
    windowed = reference_search(xyz, pts, cell_lo=lo, cell_hi=hi)
    assert_same(donor_search(xyz, pts, cell_lo=lo, cell_hi=hi), windowed, "windowed")
    windowed_warm = reference_search(xyz, pts, guesses=g, cell_lo=lo, cell_hi=hi)
    assert_same(
        donor_search(xyz, pts, guesses=g, cell_lo=lo, cell_hi=hi),
        windowed_warm,
        "windowed-warm",
    )
    # The whole grid as an explicit window: the plain walk, no recovery.
    walk = reference_search(xyz, pts, cell_lo=0 * max_cell, cell_hi=max_cell)
    assert_same(
        donor_search(xyz, pts, cell_lo=0 * max_cell, cell_hi=max_cell),
        walk,
        "whole-grid window",
    )
    one = rng.integers(n)
    batches = [
        (xyz, pts, None, None, None, cold),
        (xyz, pts, g, None, None, warm),
        (xyz, pts, None, lo, hi, windowed),
        (xyz, pts, g, lo, hi, windowed_warm),
        (xyz, pts, None, 0 * max_cell, max_cell, walk),
        (xyz, pts[one : one + 1], g[one : one + 1], None, None,
         reference_search(xyz, pts[one : one + 1], g[one : one + 1])),
        (xyz, pts[:0], None, lo, hi, reference_search(xyz, pts[:0], cell_lo=lo, cell_hi=hi)),
    ]
    check_batched(batches, rng)
    if pool is not None:
        pool.extend(batches)
    found = int(cold.found.sum())
    at_cap = capped(windowed) + capped(windowed_warm) + capped(walk)
    recovered = int((cold.found & ~walk.found).sum())
    both = int(skipped > 0 and hits > 0)
    return found, n - found, recovered, at_cap, skipped, hits, both


def test_fixed_seeds_match_reference():
    """The Hypothesis check below with pinned draws: a failure here is
    reproducible without an example database.  Also guards the oracle
    against going vacuous — hits, orphans, points only the retry / probe
    recovered, walks left at the step cap, skipped probe blocks and probe
    hits must all occur, a skip and a hit in one search at least once."""
    rng = np.random.default_rng(2024)
    totals = np.zeros(7, dtype=int)
    pools: dict[int, list] = {2: [], 3: []}
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
            # Folds on two of the 2-D grids: 3-D ones cost the
            # reference seconds of walking to the cap.
            kind="seam" if seed % 4 == 3 else ("fold" if seed % 6 == 0 else "wavy"),
            pool=pools[ndim],
        )
    # Every grid's batches of one dimension in one call: batches on
    # different grids share the call's Newton rounds.
    for pool in pools.values():
        check_batched(pool, rng)
    found, orphans, recovered, at_cap, skipped, hits, both = totals
    assert found > 500 and orphans > 500 and recovered > 10 and at_cap > 10
    assert skipped > 0 and hits > 0 and both > 0


# Tier-1 draws 8 grids (the default profile's 100 examples / 12); the
# nightly profile in tests/conftest.py draws ten times as many.
@settings(deadline=None, max_examples=settings.default.max_examples // 12)
@given(
    dims=st.lists(st.integers(3, 14), min_size=2, max_size=3).map(tuple),
    amp=st.floats(0.0, 0.3),
    freq=st.floats(0.3, 1.5),
    jitter=st.floats(0.0, 0.12),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["wavy", "seam", "fold"]),
)
def test_generated_grids_match_reference(dims, amp, freq, jitter, n, seed, kind):
    check_case(dims, amp, freq, jitter, n, seed, kind)


def probe_map(corners, s):
    """The probe's own evaluation of the map at its Newton solution."""
    return (_map2d if s.shape[1] == 2 else _map3d)(corners, s.T[None])[0].T


@settings(deadline=None)
@given(
    ndim=st.sampled_from([2, 3]),
    kind=st.sampled_from(["wavy", "fold", "collapsed"]),
    offset=st.sampled_from([0.0, 1e6, -1e6]),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_may_hit_keeps_every_possible_hit(ndim, kind, offset, scale, seed):
    """Soundness of the probe's certificate: every ``s`` the probe can
    accept (``[-1e-9, 1 + 1e-9]`` per axis, the cube's extreme corners
    included), mapped the way the probe maps it, and every target within
    the ``1e-8`` residual of that map passes ``_may_hit`` — on wavy,
    folded and collapsed cells, near the origin and 1e6 away from it.
    Targets far outside the corner box are refused, so the test is not
    passed by a certificate that never skips."""
    rng = np.random.default_rng(seed)
    m, n = 1 << ndim, 64
    # n cells: the unit cube's corners, perturbed, scaled and offset.
    c = corner_offsets(ndim)[None] + rng.uniform(-0.4, 0.4, (n, m, ndim))
    if kind == "fold":
        c[..., 0] = np.abs(c[..., 0] - rng.uniform(0.0, 1.0, (n, 1)))
    elif kind == "collapsed":
        same = rng.random((n, m)) < 0.5
        c[same] = np.broadcast_to(c[:, :1], c.shape)[same]
    c = c * scale + offset
    corners = np.ascontiguousarray(c.transpose(1, 2, 0))
    lo, hi = -1e-9, 1 + 1e-9
    s = rng.uniform(lo, hi, (n, ndim))
    s[rng.random((n, ndim)) < 0.3] = lo
    s[rng.random((n, ndim)) < 0.3] = hi
    s[: 1 << ndim] = np.where(corner_offsets(ndim) == 1, hi, lo)
    x = probe_map(corners, s)
    assert _may_hit(corners, x).all()
    for d in (rng.uniform(-1e-8, 1e-8, x.shape), rng.choice([-1e-8, 1e-8], x.shape)):
        assert _may_hit(corners, x + d).all()
    box_lo, box_hi = c.min(axis=1), c.max(axis=1)
    margin = 1e-3 * (1 + box_hi - box_lo) + 1e-9 * np.abs(c).max(axis=1)
    assert not _may_hit(corners, box_hi + margin).any()
    assert not _may_hit(corners, box_lo - margin).any()


@pytest.mark.parametrize("ndim", [2, 3])
def test_probe_hit_then_all_blocks_skipped(ndim):
    """The probe finds one row in its clipped cell (offset 0, the walk
    given no steps), then every later block holds only an orphan far
    off the grid: each is skipped, charged its step, and all five
    arrays are the reference's."""
    rng = np.random.default_rng(11)
    xyz = wavy((6,) * ndim, 0.1, 0.7, 0.05, rng)
    cell = np.full(ndim, 2)
    corners = xyz[tuple(cell[:, None] + corner_offsets(ndim).T)]
    pts = np.stack([corners.mean(axis=0), np.full(ndim, 100.0)])
    guesses = np.stack([cell, cell])
    res, blocks = probed_search(xyz, pts, guesses, 0)
    assert_same(res, reference_search(xyz, pts, guesses, 0), ndim)
    assert blocks == [(2, True)] + [(1, False)] * (3**ndim - 1)
    assert res.found.tolist() == [True, False]
    assert (res.cells[0] == cell).all()
    assert res.steps.tolist() == [1, 3**ndim]


# Node x-coordinates along i (y = j, z = k) of grids whose i-lines fold
# back, and a point x beyond the fold plus one x the grid covers.
CYCLES = {
    # x = |i - 5|: cells 4 and 6 send x = -2.5 to each other, both steps
    # clipped to +-2 (period 2; a cold seed bounces 5 <-> 3 instead).
    "period 2": ([5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5], -2.5, 3.5),
    # Cell 4 steps +2, cells 6 and 5 step -1 each (period 3).
    "period 3": ([5, 4, 3, 2, 0.9, 0.5, 1.5, 3.5, 5], 0.0, 3.0),
}


CAPS = [1, 2, 3, 4, 5, 6, 199, 200, 201]


# 3-D (the same grids extruded) only at the small caps: the reference
# spends about a millisecond per 3-D walk step.
@pytest.mark.parametrize(
    "ndim, max_steps", [(2, m) for m in CAPS] + [(3, m) for m in CAPS[:6]]
)
@pytest.mark.parametrize("cycle", sorted(CYCLES))
def test_cycling_walks_match_reference(cycle, ndim, max_steps):
    """Walks that repeat a state are finished in closed form: every
    remainder of the cap against the period, a repeat on the very last
    iteration, a cycler whose state recurs only once the rows walking
    beside it have left, and full-grid searches whose probe then starts
    from the cycler's final cell."""
    xs, beyond, covered = CYCLES[cycle]
    axes = [np.asarray(xs, float), np.arange(12.0)] + [np.arange(3.0)] * (ndim - 2)
    xyz = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    rest = [0.5] * (ndim - 2)
    # Cyclers warm (one step of approach first) and cold-seeded; rows
    # found and escaped after six steps each.
    pts = np.array([[beyond, 0.5, *rest], [beyond, 4.5, *rest],
                    [covered, 10.5, *rest], [covered, 30.0, *rest]])
    guesses = np.zeros((4, ndim), np.int64)
    guesses[:, 0] = [2, 0, 4, 4]
    guesses[1] = -1
    max_cell = np.array(xyz.shape[:-1]) - 2
    window = {"cell_lo": 0 * max_cell, "cell_hi": max_cell}
    # The warm cycler alone, then the mixed batch windowed and full-grid.
    for n, kw in ((1, window), (4, window), (4, {})):
        args = (xyz, pts[:n], guesses[:n], max_steps)
        res = donor_search(*args, **kw)
        assert_same(res, reference_search(*args, **kw), (n, kw))
        # The cyclers end neither found nor escaped, at the cap.
        assert not (res.found | res.escaped)[:2].any()
        assert (res.steps[:2] >= max_steps).all()


@pytest.mark.parametrize("ndim", [2, 3])
def test_single_point_batches_match_reference(ndim):
    """n = 1 is the commonest batch of the distributed search (one
    forwarded point per SEARCH frame)."""
    rng = np.random.default_rng(7)
    xyz = wavy((9,) * ndim, 0.2, 0.8, 0.08, rng)
    for pt in rng.uniform(-1.0, 9.0, (24, ndim)):
        assert_same(donor_search(xyz, pt), reference_search(xyz, pt[None]), "n=1")



def instrumented_search(*args, **kw):
    """``donor_search`` with its probe blocks recorded as
    :func:`probed_search` does, plus ``(rows, found)`` of each
    opposite-edge retry.  The retry is the search generator ``_search``
    recursing; a one-batch call's outer search finishes last."""
    searches = []
    search = donorsearch._search

    def spy(*a, **k):
        res = yield from search(*a, **k)
        searches.append((len(res.found), int(res.found.sum())))
        return res

    with mock.patch.object(donorsearch, "_search", spy):
        res, blocks = probed_search(*args, **kw)
    return res, blocks, searches[:-1]


def check_rows_independent(dims, amp, freq, jitter, n, seed, kind):
    """A batch of distinct rows, then the same rows shuffled with one to
    three copies each.  In every mode — cold and warm full-grid searches
    (which reach the retry and the probe) and cold and warm windowed
    ones — each copy's five arrays are its distinct row's, byte for
    byte.  Returns the duplicated batches' retried rows, retry hits,
    probe blocks that ran and probe hits."""
    rng = np.random.default_rng(seed)
    ndim = len(dims)
    if kind == "seam":
        xyz = seam(dims, jitter, rng)
    else:
        xyz = (fold if kind == "fold" else wavy)(dims, amp, freq, jitter, rng)
    lo_x = xyz.reshape(-1, ndim).min(axis=0)
    hi_x = xyz.reshape(-1, ndim).max(axis=0)
    pad = np.where(rng.random((n, 1)) < 0.5, 0.0, 0.1 * (hi_x - lo_x) + 0.4)
    pts = np.unique(rng.uniform(lo_x - pad, hi_x + pad, (n, ndim)), axis=0)
    copies = np.repeat(np.arange(len(pts)), rng.integers(1, 4, len(pts)))
    src = rng.permutation(copies)
    # Warm hints: cold donors knocked off by up to two cells, some rows
    # without one (negative => seeded cold).
    warm = donor_search(xyz, pts).cells + rng.integers(-2, 3, pts.shape)
    warm[rng.random(len(pts)) < 0.3] = -1
    max_cell = np.array(xyz.shape[:-1]) - 2
    lo = rng.integers(0, max_cell + 1)
    window = {"cell_lo": lo, "cell_hi": rng.integers(lo, max_cell + 1)}
    counts = np.zeros(4, dtype=int)
    for hints in (None, warm):
        for kw in ({}, window):
            one = donor_search(xyz, pts, hints, **kw)
            res, blocks, retries = instrumented_search(
                xyz, pts[src], None if hints is None else hints[src], **kw
            )
            for f in FIELDS:
                a, b = getattr(res, f), getattr(one, f)[src]
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (kw, f)
            counts += (
                sum(rows for rows, _ in retries),
                sum(hit for _, hit in retries),
                sum(ran for _, ran in blocks),
                probe_counts(res, blocks)[1],
            )
    return counts


def test_fixed_seeds_rows_are_independent():
    """The row-independence check below with pinned draws, guarded
    against going vacuous: retries and probe hits must happen in the
    duplicated batches."""
    rng = np.random.default_rng(36)
    totals = np.zeros(4, dtype=int)
    for seed in range(8):
        ndim = 2 if seed % 2 else 3
        totals += check_rows_independent(
            tuple(int(d) for d in rng.integers(3, 12, ndim)),
            amp=rng.uniform(0.0, 0.3),
            freq=rng.uniform(0.3, 1.5),
            jitter=rng.uniform(0.0, 0.12),
            n=int(rng.integers(1, 120)),
            seed=seed,
            kind=("wavy", "seam", "fold", "wavy")[seed % 4],
        )
    retried, retry_hits, probes_ran, probe_hits = totals
    assert retried > 10 and retry_hits > 0 and probes_ran > 0 and probe_hits > 0


# Row independence is what lets the off-body step search each distinct
# fringe point once and scatter the answer to its copies.  Tier-1 draws
# 8 grids; the nightly profile ten times as many.
@settings(deadline=None, max_examples=settings.default.max_examples // 12)
@given(
    dims=st.lists(st.integers(3, 11), min_size=2, max_size=3).map(tuple),
    amp=st.floats(0.0, 0.3),
    freq=st.floats(0.3, 1.5),
    jitter=st.floats(0.0, 0.12),
    n=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["wavy", "seam", "fold"]),
)
def test_duplicated_rows_get_their_distinct_rows_answer(
    dims, amp, freq, jitter, n, seed, kind
):
    check_rows_independent(dims, amp, freq, jitter, n, seed, kind)
