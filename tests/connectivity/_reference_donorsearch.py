"""Stencil-walk donor search with Newton inversion.

For each receiver point x the search finds the donor cell (i, j[, k])
of a curvilinear grid and the fractional coordinates s in [0, 1]^ndim
such that the multilinear map of the cell corners reproduces x.  The
walk starts from a guess cell (previous donor warm — the "nth-level
restart" — or a coarse nearest-node seed when cold), Newton-inverts the
multilinear map inside the current cell, and if the solution lands
outside the unit cube steps the cell index toward it.  All points are
processed as one vectorised batch per iteration (active-mask pattern),
never per-point Python loops.

Cold starts are expensive by construction, as in the paper ("nothing is
known about the possible donor location and the solution must be
performed from scratch"): the coarse nearest-node scan is charged as
extra walk steps, so warm restarts show the paper's "considerable
reduction" in search cost.

The per-point *step counts* are returned: they are the connectivity
work measure the simulated machine charges
(:class:`repro.solver.workmodel.WorkModel.search_step_flops`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class DonorSearchResult:
    """Batch search outcome."""

    cells: np.ndarray    # (n, ndim) donor cell indices (valid where found)
    fracs: np.ndarray    # (n, ndim) fractional offsets in [0, 1]
    found: np.ndarray    # (n,) bool
    steps: np.ndarray    # (n,) walk iterations spent per point
    escaped: np.ndarray  # (n,) walk left the allowed cell window; the
                         # last cell is a forwarding hint

    @property
    def total_steps(self) -> int:
        return int(self.steps.sum())


def _corners2d(xyz: np.ndarray, cells: np.ndarray):
    i, j = cells[:, 0], cells[:, 1]
    return (
        xyz[i, j],
        xyz[i + 1, j],
        xyz[i, j + 1],
        xyz[i + 1, j + 1],
    )


def _map2d(c00, c10, c01, c11, s):
    a, b = s[:, :1], s[:, 1:2]
    return (
        (1 - a) * (1 - b) * c00
        + a * (1 - b) * c10
        + (1 - a) * b * c01
        + a * b * c11
    )


def _jac2d(c00, c10, c01, c11, s):
    a, b = s[:, :1], s[:, 1:2]
    dxa = (1 - b) * (c10 - c00) + b * (c11 - c01)
    dxb = (1 - a) * (c01 - c00) + a * (c11 - c10)
    return np.stack([dxa, dxb], axis=-1)  # (n, 2, 2): d(xy)/d(ab)


def _corners3d(xyz: np.ndarray, cells: np.ndarray):
    i, j, k = cells[:, 0], cells[:, 1], cells[:, 2]
    return [
        xyz[i + di, j + dj, k + dk]
        for dk in (0, 1)
        for dj in (0, 1)
        for di in (0, 1)
    ]  # order: di fastest


def _map3d(corners, s):
    a, b, c = s[:, :1], s[:, 1:2], s[:, 2:3]
    wa = [(1 - a), a]
    wb = [(1 - b), b]
    wc = [(1 - c), c]
    out = 0.0
    idx = 0
    for dk in (0, 1):
        for dj in (0, 1):
            for di in (0, 1):
                out = out + wa[di] * wb[dj] * wc[dk] * corners[idx]
                idx += 1
    return out


def _jac3d(corners, s):
    eps = 1e-7
    base = _map3d(corners, s)
    cols = []
    for d in range(3):
        sp = s.copy()
        sp[:, d] += eps
        cols.append((_map3d(corners, sp) - base) / eps)
    return np.stack(cols, axis=-1)  # (n, 3, 3)


def _solve_clamped(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve J x = r per point with the determinant clamped away from
    zero — degenerate cells (e.g. collapsed trailing-edge cells) then
    produce a large-but-finite Newton step that the walk damps, instead
    of a LinAlgError."""
    ndim = J.shape[-1]
    if ndim == 2:
        a, b = J[:, 0, 0], J[:, 0, 1]
        c, d = J[:, 1, 0], J[:, 1, 1]
        det = a * d - b * c
        det = np.where(np.abs(det) < 1e-14, np.where(det < 0, -1e-14, 1e-14), det)
        x0 = (d * r[:, 0] - b * r[:, 1]) / det
        x1 = (-c * r[:, 0] + a * r[:, 1]) / det
        return np.stack([x0, x1], axis=-1)
    # 3-D: adjugate / determinant.
    det = np.linalg.det(J)
    det = np.where(np.abs(det) < 1e-14, np.where(det < 0, -1e-14, 1e-14), det)
    adj = np.empty_like(J)
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(J, i, axis=1), j, axis=2)
            cof = (
                minor[:, 0, 0] * minor[:, 1, 1]
                - minor[:, 0, 1] * minor[:, 1, 0]
            )
            adj[:, j, i] = ((-1) ** (i + j)) * cof
    return np.einsum("nij,nj->ni", adj, r) / det[:, None]


def _nearest_node_seed(
    xyz: np.ndarray,
    pts: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    target_samples: int = 256,
) -> tuple[np.ndarray, int]:
    """Cold-start seeding: nearest coarsely-sampled node per point.

    Samples the cell window with a uniform stride aimed at about
    ``target_samples`` nodes, returns the cell index of the nearest
    sample per point plus the charged cost in walk-step equivalents
    (one step ~ 8 distance evaluations).
    """
    ndim = xyz.shape[-1]
    window = [np.arange(lo[d], hi[d] + 1) for d in range(ndim)]
    total = int(np.prod([w.size for w in window]))
    stride = max(1, int(round((total / target_samples) ** (1.0 / ndim))))
    axes = [w[::stride] for w in window]
    mesh = np.meshgrid(*axes, indexing="ij")
    sample_idx = np.stack([m.ravel() for m in mesh], axis=-1)  # (m, ndim)
    sample_xyz = xyz[tuple(sample_idx.T)]  # (m, ndim)
    # Chunk over points to bound the (n, m) distance matrix.
    n = pts.shape[0]
    out = np.zeros((n, ndim), dtype=np.int64)
    chunk = max(1, 4_000_000 // max(1, sample_xyz.shape[0]))
    for start in range(0, n, chunk):
        p = pts[start : start + chunk]
        d2 = ((p[:, None, :] - sample_xyz[None, :, :]) ** 2).sum(axis=-1)
        # Prefer the *last* minimal sample: on O-grids the seam node is
        # stored twice (i = 0 and i = ni-1 coincide) and only the
        # high-index copy starts the walk inside a valid cell window.
        best = d2.shape[1] - 1 - np.argmin(d2[:, ::-1], axis=1)
        out[start : start + chunk] = sample_idx[best]
    out = np.clip(out, lo, hi)
    cost = max(1, sample_xyz.shape[0] // 8)
    return out, cost


def donor_search(
    xyz: np.ndarray,
    points: np.ndarray,
    guesses: np.ndarray | None = None,
    max_steps: int = 200,
    newton_iters: int = 8,
    tol: float = 1e-10,
    cell_lo: np.ndarray | None = None,
    cell_hi: np.ndarray | None = None,
) -> DonorSearchResult:
    """Search donor cells of one curvilinear grid for a batch of points.

    Parameters
    ----------
    xyz:
        Donor grid coordinates, shape (*dims, ndim).
    points:
        Receiver points, shape (n, ndim).
    guesses:
        Optional starting cells (n, ndim) — the nth-level restart path.
        Out-of-range guesses are clipped.
    cell_lo / cell_hi:
        Optional inclusive cell-index bounds restricting the walk (the
        distributed search walks only inside a processor's subdomain and
        *exits* instead of crossing it).  Points whose walk leaves the
        bounds are reported not-found with their last cell in ``cells``
        (the forwarding hint).

    Rows of ``guesses`` containing any negative entry are treated as
    cold (no hint) and seeded like a ``guesses=None`` search.
    """
    dims = xyz.shape[:-1]
    ndim = xyz.shape[-1]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    max_cell = np.array(dims) - 2
    lo = np.zeros(ndim, dtype=np.int64) if cell_lo is None else np.asarray(cell_lo, np.int64)
    hi = max_cell.copy() if cell_hi is None else np.asarray(cell_hi, np.int64)
    lo = np.maximum(lo, 0)
    hi = np.minimum(hi, max_cell)

    fracs = np.full((n, ndim), 0.5)
    found = np.zeros(n, dtype=bool)
    escaped = np.zeros(n, dtype=bool)
    steps = np.zeros(n, dtype=np.int64)

    if guesses is None:
        cold = np.ones(n, dtype=bool)
        cells = np.zeros((n, ndim), dtype=np.int64)
    else:
        cells = np.asarray(guesses, np.int64).copy()
        cold = np.any(cells < 0, axis=1)
        cells[~cold] = np.clip(cells[~cold], lo, hi)
    if cold.any():
        seeds, seed_cost = _nearest_node_seed(xyz, pts[cold], lo, hi)
        cells[cold] = seeds
        steps[cold] += seed_cost

    active = np.ones(n, dtype=bool)
    for _ in range(max_steps):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        c = cells[idx]
        target = pts[idx]
        # Newton inversion of the multilinear map within the cell.
        s = np.full((idx.size, ndim), 0.5)
        if ndim == 2:
            corners = _corners2d(xyz, c)
            for _ in range(newton_iters):
                r = _map2d(*corners, s) - target
                J = _jac2d(*corners, s)
                s = s - np.clip(_solve_clamped(J, r), -1e6, 1e6)
                if np.abs(r).max() < tol:
                    break
        else:
            corners = _corners3d(xyz, c)
            for _ in range(newton_iters):
                r = _map3d(corners, s) - target
                J = _jac3d(corners, s)
                s = s - np.clip(_solve_clamped(J, r), -1e6, 1e6)
                if np.abs(r).max() < tol:
                    break

        steps[idx] += 1
        inside = np.all((s >= -1e-9) & (s <= 1 + 1e-9), axis=1)

        # Converged points.
        done = idx[inside]
        found[done] = True
        fracs[done] = np.clip(s[inside], 0.0, 1.0)
        active[done] = False

        # Walk the rest: move the cell toward the Newton solution.
        movers = ~inside
        if movers.any():
            mi = idx[movers]
            sm = s[movers]
            # Step by the integer part of the overshoot, at least one
            # cell in the dominant escape direction.  Walks are local
            # (seeded or warm-started) so large Newton extrapolations
            # are distrusted and damped hard.
            delta = np.floor(sm).astype(np.int64)
            delta = np.clip(delta, -2, 2)
            zero_rows = np.all(delta == 0, axis=1)
            if zero_rows.any():
                # s in [-eps, 1+eps) but flagged outside: nudge dominant.
                dom = np.argmax(np.abs(sm[zero_rows] - 0.5), axis=1)
                sgn = np.sign(sm[zero_rows, dom] - 0.5).astype(np.int64)
                d2 = delta[zero_rows]
                d2[np.arange(d2.shape[0]), dom] = np.where(sgn == 0, 1, sgn)
                delta[zero_rows] = d2
            newcells = cells[mi] + delta
            out = np.any((newcells < lo) | (newcells > hi), axis=1)
            # Points leaving the allowed window: stop, report last cell
            # clipped to the window edge plus the attempted step (the
            # forwarding hint is the attempted cell).
            stop = mi[out]
            escaped[stop] = True
            active[stop] = False
            cells[stop] = np.clip(newcells[out], 0, max_cell)
            stay = mi[~out]
            cells[stay] = newcells[~out]

    # Full-grid searches retry walks that ran off an index boundary from
    # the opposite edge: on O-grids the physical neighbourhood wraps
    # (seam duplicated at i=0 / i=ni-1), so a point "below" cell 0 may
    # live in the last cells.  Windowed (distributed) searches must not
    # retry — their escapes are forwarding hints.
    full_grid = cell_lo is None and cell_hi is None
    retry = full_grid and escaped.any()
    if retry:
        rows = np.nonzero(escaped & ~found)[0]
        seeds = cells[rows].copy()
        at_lo = seeds <= lo
        at_hi = seeds >= hi
        seeds[at_lo] = np.broadcast_to(hi, seeds.shape)[at_lo]
        seeds[at_hi] = np.broadcast_to(lo, seeds.shape)[at_hi]
        again = donor_search(
            xyz,
            pts[rows],
            guesses=seeds,
            max_steps=max_steps,
            newton_iters=newton_iters,
            tol=tol,
            cell_lo=lo,   # pass explicit bounds: no second-level retry
            cell_hi=hi,
        )
        steps[rows] += again.steps
        hit = again.found
        found[rows[hit]] = True
        cells[rows[hit]] = again.cells[hit]
        fracs[rows[hit]] = again.fracs[hit]
        escaped[rows[hit]] = False

    # Last-resort neighbourhood probe (full-grid searches only): a
    # diagonal walk step can cross the index boundary in one component
    # while the *clipped* in-window cell is the true donor — boundary
    # cells of strongly wavy grids push the first Newton guess outside
    # the unit cube, so the walk aborts as "escaped" one cell short,
    # and the opposite-edge retry above only helps periodic (O-grid)
    # wraps.  Newton-test the clipped last cell and its immediate
    # in-window neighbours directly; acceptance requires the solution
    # inside the cube *and* a converged residual, so genuinely
    # uncovered points (true orphans) still fail every candidate.
    # Windowed (distributed) searches skip this: their escapes are
    # forwarding hints and must stay bit-identical.
    if full_grid and not found.all():
        rows = np.nonzero(~found)[0]
        base = np.clip(cells[rows], lo, hi)
        targets = pts[rows]
        offsets = np.stack(
            np.meshgrid(*([np.array([0, -1, 1])] * ndim), indexing="ij"),
            axis=-1,
        ).reshape(-1, ndim)  # (0,...,0) first: the clipped cell itself
        remaining = np.ones(rows.size, dtype=bool)
        for off in offsets:
            if not remaining.any():
                break
            sub = np.nonzero(remaining)[0]
            cand = np.clip(base[sub] + off, lo, hi)
            s = np.full((sub.size, ndim), 0.5)
            if ndim == 2:
                corners = _corners2d(xyz, cand)
                for _ in range(newton_iters):
                    r = _map2d(*corners, s) - targets[sub]
                    J = _jac2d(*corners, s)
                    s = s - np.clip(_solve_clamped(J, r), -1e6, 1e6)
                    if np.abs(r).max() < tol:
                        break
                resid = np.abs(_map2d(*corners, s) - targets[sub]).max(axis=1)
            else:
                corners = _corners3d(xyz, cand)
                for _ in range(newton_iters):
                    r = _map3d(corners, s) - targets[sub]
                    J = _jac3d(corners, s)
                    s = s - np.clip(_solve_clamped(J, r), -1e6, 1e6)
                    if np.abs(r).max() < tol:
                        break
                resid = np.abs(_map3d(corners, s) - targets[sub]).max(axis=1)
            steps[rows[sub]] += 1  # one Newton solve ~ one walk step
            inside = (
                np.all((s >= -1e-9) & (s <= 1 + 1e-9), axis=1)
                & (resid <= 1e-8)
            )
            hit = sub[inside]
            gi = rows[hit]
            found[gi] = True
            cells[gi] = cand[inside]
            fracs[gi] = np.clip(s[inside], 0.0, 1.0)
            escaped[gi] = False
            remaining[hit] = False

    # Anything still active after max_steps is not found.
    return DonorSearchResult(
        cells=cells, fracs=fracs, found=found, steps=steps, escaped=escaped
    )
