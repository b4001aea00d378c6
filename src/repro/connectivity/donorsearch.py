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

Batches.  One call may search independent batches of rows, each on its
own grid and window.  Each batch's search is a generator (:func:`_search`)
yielding one Newton request per walk step or probe block; every round
:func:`donor_search` gathers the live batches' requests and
:func:`_invert` runs them stacked along the point axis, each request
with its own exit.  Every operation acts per point, so *a batch's five
arrays do not depend on which other batches share its rounds*.

Kernel layout and exactness contract.  One Newton loop (:func:`_invert`)
serves the walk and the last-resort probe, 2-D and 3-D.  The corners of
a request are gathered as one ``(2**ndim, ndim, n)`` fancy index, point
axis last, so every operation runs along it; in 3-D each iteration
evaluates the residual point and the three eps-perturbed points of the
forward-difference Jacobian as one stacked ``(4, 3, n)`` trilinear map,
and takes the adjugate through a constant gather table (nine
``a*d - b*c`` cofactors and a sign).  ``steps`` feeds every simulated
time and ``fracs`` every interpolated value, so the kernel is held to
*bit identity* with the one it replaced, not to a tolerance.
Load-bearing: the weight product ``(wa*wb)*wc``; the eight weighted
corners summed left to right from ``0.0 +`` (no ``.sum``, ``einsum`` or
``@``); the forward difference, ``eps = 1e-7``; ``np.linalg.det``; the
final ``einsum("nij,nj->ni")`` over C-contiguous operands (its
reduction order follows the layout); the 2-D closed forms as written;
the per-request ``abs(r).max() < TOL`` exit; the seed scan's squared
distance accumulated per axis, ``(dx2 + dy2) + dz2``.
``tests/connectivity/test_kernel_exact.py`` compares every result array
byte for byte with the replaced kernel, batched and alone, and is the
gate for touching them.

A walk that repeats a state (the active rows plus their cells) is
finished in closed form.  One walk iteration is a pure function of the
state (its Newton request, exit included, holds only the batch's active
rows) and rows only ever leave the active set, so none left since the
first visit and the full loop would cycle until ``max_steps``.  The
loop adds the remaining iterations to those rows' ``steps``, sets their
``cells`` to the state the last iteration would reach, and stops.  It
writes only rows that end neither found nor escaped with every walk
iteration spent, whose ``found``, ``fracs`` and ``escaped`` a cycle
cannot change: all five arrays, and the probe from those cells, are the
full loop's bit for bit.

The last-resort probe skips a candidate block no row can hit
(:func:`_may_hit`).  A hit needs ``s`` within ``1e-9`` of the unit cube
and a residual ``<= 1e-8``; there the multilinear weights sum to 1 with
negative mass below ``3.1e-9``, so the map lies in the corners' box
widened by ``3.1e-9 * span``, plus about ``1e-15 * max|corner|`` of
rounding in ``_map2d`` / ``_map3d``.  A target outside that box padded
by ``1e-6 * (1 + span) + 1e-12 * max|corner|`` cannot hit, whatever
Newton returns.  Only a block whose rows *all* lie outside is skipped,
after charging its step per row; any other block runs on its full batch
(same batch-wide Newton exit), and a skipped one would have written only
``steps``: all five arrays are unchanged.  Windowed searches never probe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from repro.connectivity.interpolation import corner_offsets


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

    def split(self, sizes) -> list[DonorSearchResult]:
        """Consecutive blocks of ``sizes`` rows, one result each."""
        arrays, ends = [getattr(self, f.name) for f in fields(self)], itertools.accumulate(sizes)
        return [DonorSearchResult(*(a[e - n : e] for a in arrays)) for n, e in zip(sizes, ends)]


def _map2d(c, s):
    """Bilinear map of (4, 2, n) corners ``c`` at ``s`` (p, 2, n)."""
    a, b = s[:, :1], s[:, 1:]
    return (
        (1 - a) * (1 - b) * c[0]
        + a * (1 - b) * c[1]
        + (1 - a) * b * c[2]
        + a * b * c[3]
    )


# Corner m of a cell sits at index offsets _OFFSETS[ndim][m], dim 0 fastest.
_OFFSETS = {d: corner_offsets(d) for d in (2, 3)}
_EPS = 1e-7  # forward-difference step of the 3-D Jacobian
# The residual point plus one eps-step per local coordinate, (4, 3, 1).
_STEP = np.zeros((4, 3, 1))
_STEP[(1, 2, 3), (0, 1, 2), 0] = _EPS
# Adjugate gather table into D[c, r] = dx_r/ds_c flattened to (9, n):
# entry [j, i] is the minor without row i and column j, i.e. rows
# (_LO[i], _HI[i]) x columns (_LO[j], _HI[j]); the four planes are its
# a, d, b, c in ``a*d - b*c`` and _SIGN its checkerboard sign.
_LO, _HI = np.array([1, 0, 0]), np.array([2, 2, 1])
_MINOR = np.stack(
    [3 * c[:, None] + r for r, c in ((_LO, _LO), (_HI, _HI), (_LO, _HI), (_HI, _LO))]
)  # (4, 3, 3)
_SIGN = (1.0 - 2.0 * (np.add.outer(np.arange(3), np.arange(3)) % 2))[:, :, None]


def _corners(xyz: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """(2**ndim, ndim, n) corners of ``cells``: one fancy index of flat
    node numbers, point axis moved last (every kernel op runs along it)."""
    node = np.cumprod((1,) + xyz.shape[-2:0:-1])[::-1]  # flat node number per index step
    flat = (cells @ node)[:, None] + _OFFSETS[cells.shape[1]] @ node
    return np.ascontiguousarray(xyz.reshape(-1, xyz.shape[-1])[flat].transpose(1, 2, 0))


def _map3d(corners, s):
    """Trilinear map of (8, 3, n) ``corners`` at ``s`` (p, 3, n).  The
    weight product ``(wa*wb)*wc`` and the left-to-right 8-term chain
    from ``0.0 +`` are load-bearing."""
    w = np.stack([1 - s, s])  # (2, p, 3, n)
    wa, wb, wc = w[:, :, 0], w[:, :, 1], w[:, :, 2]
    w8 = (wa * wb[:, None]) * wc[:, None, None]  # (dk, dj, di, p, n)
    terms = w8.reshape(8, -1, 1, s.shape[-1]) * corners[:, None]
    out = 0.0 + terms[0]
    for m in range(1, 8):
        out += terms[m]
    return out


def _clamp_det(det):
    """Keep a determinant away from zero — degenerate cells (e.g.
    collapsed trailing-edge cells) then produce a large-but-finite
    Newton step that the walk damps, instead of a LinAlgError."""
    return np.where(np.abs(det) < 1e-14, np.where(det < 0, -1e-14, 1e-14), det)


def _newton2d(c, s, targets):
    """Residual and Newton step of the bilinear map at ``s`` (2, n):
    analytic Jacobian d(xy)/d(s0 s1), closed-form 2x2 solve."""
    r = _map2d(c, s[None])[0] - targets
    dx0 = (1 - s[1]) * (c[1] - c[0]) + s[1] * (c[3] - c[2])
    dx1 = (1 - s[0]) * (c[2] - c[0]) + s[0] * (c[3] - c[1])
    a, b, cc, d = dx0[0], dx1[0], dx0[1], dx1[1]
    det = _clamp_det(a * d - b * cc)
    return r, np.stack([(d * r[0] - b * r[1]) / det, (-cc * r[0] + a * r[1]) / det])


def _newton3d(corners, s, targets):
    """Residual and Newton step of the trilinear map at ``s`` (3, n):
    base + three eps-perturbed points as one stacked map evaluation,
    then adjugate / determinant with all nine cofactors at once."""
    x = _map3d(corners, s + _STEP)  # (4, 3, n)
    r = x[0] - targets
    D = (x[1:] - x[0]) / _EPS  # D[c, r] = J[r, c]
    det = _clamp_det(np.linalg.det(D.transpose(2, 1, 0)))
    m = D.reshape(9, -1)[_MINOR]  # (4, 3, 3, n)
    adj = (_SIGN * (m[0] * m[1] - m[2] * m[3])).transpose(2, 0, 1)
    # einsum's reduction order follows the operand layout: feed it the
    # C-contiguous (n, 3, 3) x (n, 3) it has always seen.
    adj, rhs = np.ascontiguousarray(adj), np.ascontiguousarray(r.T)
    return r, np.einsum("nij,nj->ni", adj, rhs).T / det


_MAP = {2: _map2d, 3: _map3d}
NEWTON_ITERS = 8  # Newton iterations per inversion, at most
TOL = 1e-10  # a request's exit: its largest residual component below this
_NEWTON = {2: _newton2d, 3: _newton3d}


def _invert(requests):
    """Newton-invert each request's gathered corners at its targets (n,
    ndim), all requests stacked along the point axis, each leaving the
    stack at its own exit; returns each request's ``s`` (n, ndim)."""
    corners = requests[0][0] if len(requests) == 1 else np.concatenate([c for c, _ in requests], -1)
    targets = np.concatenate([t.T for _, t in requests], axis=-1)
    newton, s = _NEWTON[len(targets)], np.full(targets.shape, 0.5)
    sizes = [len(t) for _, t in requests]
    out, left = [None] * len(sizes), list(range(len(sizes)))  # left: requests still stacked
    for _ in range(NEWTON_ITERS):
        r, step = newton(corners, s, targets)
        s = s - np.clip(step, -1e6, 1e6)
        if len(left) == 1:
            if np.abs(r).max() < TOL:
                break
            continue
        starts = list(itertools.accumulate([sizes[q] for q in left[:-1]], initial=0))
        met = np.maximum.reduceat(np.abs(r).max(axis=0), starts) < TOL  # per request
        if met.any():
            for q, lo in itertools.compress(zip(left, starts), met):
                out[q] = s[:, lo : lo + sizes[q]].T
            keep = np.repeat(~met, [sizes[q] for q in left])
            left = list(itertools.compress(left, ~met))
            if not left:
                return out
            corners, targets, s = corners[..., keep], targets[:, keep], s[:, keep]
    for q, lo in zip(left, itertools.accumulate([sizes[q] for q in left[:-1]], initial=0)):
        out[q] = s[:, lo : lo + sizes[q]].T
    return out


def _may_hit(corners, targets):
    """Rows (n,) whose target may pass the probe's acceptance test: inside
    the corner box padded as the module docstring derives (NaN keeps)."""
    c = corners.transpose(0, 2, 1)  # (2**ndim, n, ndim)
    lo, hi = c.min(axis=0), c.max(axis=0)
    pad = 1e-6 * (1 + (hi - lo)) + 1e-12 * np.maximum(np.abs(lo), np.abs(hi))
    return ~np.any((targets < lo - pad) | (targets > hi + pad), axis=1)


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
    # Reversed samples: argmin's first minimum is then the *last* minimal
    # sample.  On O-grids the seam node is stored twice (i = 0 and
    # i = ni-1 coincide); only the high-index copy starts a valid walk.
    sample_idx = np.stack([a.ravel() for a in mesh], axis=-1)[::-1]  # (m, ndim)
    sample_xyz = np.ascontiguousarray(xyz[tuple(sample_idx.T)].T)  # (ndim, m)
    # Chunk over points to bound the (n, m) distance matrix.
    n, m = pts.shape[0], sample_xyz.shape[1]
    out = np.zeros((n, ndim), dtype=np.int64)
    chunk = max(1, 4_000_000 // max(1, m))
    d2_buf, diff_buf = np.empty((2, min(n, chunk), m))
    for start in range(0, n, chunk):
        p = pts[start : start + chunk]
        d2, diff = d2_buf[: p.shape[0]], diff_buf[: p.shape[0]]
        # Per-axis accumulation, (dx2 + dy2) + dz2 as ``.sum(axis=-1)``
        # adds them, without the (n, m, ndim) temporary.
        d2.fill(0.0)
        for d in range(ndim):
            np.subtract(p[:, d, None], sample_xyz[d], out=diff)
            diff *= diff
            d2 += diff
        out[start : start + chunk] = sample_idx[np.argmin(d2, axis=1)]
    out = np.clip(out, lo, hi)
    cost = max(1, m // 8)
    return out, cost


def _search(xyz, pts, guesses, cell_lo, cell_hi, max_steps):
    """One batch's search (see :func:`donor_search`) as a generator: it yields
    each Newton request, is sent its ``s`` and returns the batch's result."""
    n, ndim = pts.shape
    max_cell = np.array(xyz.shape[:-1]) - 2
    lo = np.zeros_like(max_cell) if cell_lo is None else np.maximum(np.asarray(cell_lo, np.int64), 0)
    hi = max_cell if cell_hi is None else np.minimum(np.asarray(cell_hi, np.int64), max_cell)

    fracs = np.full((n, ndim), 0.5)
    found = np.zeros(n, dtype=bool)
    escaped = np.zeros(n, dtype=bool)
    steps = np.zeros(n, dtype=np.int64)

    # Rows there is anything to search for: a finite point and a window
    # holding at least one cell.  The rest end found=False,
    # escaped=False, steps=0 without being seeded, walked or probed.
    live = np.isfinite(pts).all(axis=1) & bool(np.all(lo <= hi))
    if guesses is None:
        cold = live.copy()
        cells = np.zeros((n, ndim), dtype=np.int64)
    else:
        cold = np.any(guesses < 0, axis=1) & live
        cells = np.clip(guesses, lo, hi)
    if cold.any():
        seeds, seed_cost = _nearest_node_seed(xyz, pts[cold], lo, hi)
        cells[cold] = seeds
        steps[cold] += seed_cost

    active = live.copy()
    # Walk states — the active rows plus their cells — by the iteration
    # that started from each; insertion order is iteration order.
    seen: dict[bytes, int] = {}
    for it in range(max_steps):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        state = idx.tobytes() + cells[idx].tobytes()
        first = seen.setdefault(state, it)
        if first < it:
            # A repeat: the rest of the walk cycles through the states
            # since ``first``; finish it in closed form (module docstring).
            end = list(seen)[first + (max_steps - first) % (it - first)]
            cells[idx] = np.frombuffer(end, cells.dtype, offset=idx.nbytes).reshape(-1, ndim)
            steps[idx] += max_steps - it
            break
        # Newton inversion of the multilinear map within the cell.
        s = yield _corners(xyz, cells[idx]), pts[idx]

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
            delta = np.clip(np.floor(sm).astype(np.int64), -2, 2)
            zero = np.nonzero(np.all(delta == 0, axis=1))[0]
            if zero.size:
                # s in [-eps, 1+eps) but flagged outside: nudge dominant.
                dom = np.argmax(np.abs(sm[zero] - 0.5), axis=1)
                sgn = np.sign(sm[zero, dom] - 0.5).astype(np.int64)
                delta[zero, dom] = np.where(sgn == 0, 1, sgn)
            newcells = cells[mi] + delta
            out = np.any((newcells < lo) | (newcells > hi), axis=1)
            # Points leaving the allowed window: stop, report last cell
            # clipped to the window edge plus the attempted step (the
            # forwarding hint is the attempted cell).
            escaped[mi] = out
            active[mi] = ~out
            cells[mi] = np.where(out[:, None], np.clip(newcells, 0, max_cell), newcells)

    # Full-grid searches retry walks that ran off an index boundary from
    # the opposite edge: on O-grids the physical neighbourhood wraps
    # (seam duplicated at i=0 / i=ni-1), so a point "below" cell 0 may
    # live in the last cells.  Windowed (distributed) searches must not
    # retry — their escapes are forwarding hints.
    full_grid = cell_lo is None and cell_hi is None
    if full_grid and escaped.any():
        rows = np.nonzero(escaped & ~found)[0]
        seeds = cells[rows]
        seeds = np.where(seeds >= hi, lo, np.where(seeds <= lo, hi, seeds))
        again = yield from _search(xyz, pts[rows], seeds, lo, hi, max_steps)  # no 2nd retry
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
        rows = np.nonzero(~found & live)[0]
        base = np.clip(cells[rows], lo, hi)
        targets = pts[rows]
        remaining = np.ones(rows.size, dtype=bool)
        # (0, ..., 0) first: the clipped cell itself.
        for off in itertools.product((0, -1, 1), repeat=ndim):
            if not remaining.any():
                break
            sub = np.nonzero(remaining)[0]
            cand = np.clip(base[sub] + off, lo, hi)
            corners = _corners(xyz, cand)
            steps[rows[sub]] += 1  # one Newton solve ~ one walk step
            if not _may_hit(corners, targets[sub]).any():
                continue  # no row can hit: the solve would change nothing
            s = yield corners, targets[sub]
            x = _MAP[ndim](corners, s.T[None])[0].T
            resid = np.abs(x - targets[sub]).max(axis=1)
            inside = np.all((s >= -1e-9) & (s <= 1 + 1e-9), axis=1) & (resid <= 1e-8)
            hit = sub[inside]
            gi = rows[hit]
            found[gi] = True
            cells[gi] = cand[inside]
            fracs[gi] = np.clip(s[inside], 0.0, 1.0)
            escaped[gi] = False
            remaining[hit] = False

    # Anything still active after max_steps is not found.
    return DonorSearchResult(cells, fracs, found, steps, escaped)


def donor_search(
    xyz,
    points: np.ndarray,
    guesses: np.ndarray | None = None,
    max_steps: int = 200,
    cell_lo=None,
    cell_hi=None,
    batch: np.ndarray | None = None,
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
    batch:
        Optional (n,) non-decreasing batch id per row (each batch's rows
        consecutive).  Then ``xyz`` and (if given)
        ``cell_lo`` / ``cell_hi`` hold one grid / window (``None``: full
        grid) per batch, and each batch gets exactly the arrays a call
        with only its rows, grid, window and guesses would return.

    Rows of ``guesses`` containing any negative entry are treated as
    cold (no hint) and seeded like a ``guesses=None`` search.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if guesses is not None:
        guesses = np.atleast_2d(np.asarray(guesses, np.int64))
        if guesses.shape != pts.shape:
            raise ValueError(
                f"guesses shape {guesses.shape} does not match "
                f"points shape {pts.shape}"
            )
    if batch is None:
        xyz, cell_lo, cell_hi, rows = [xyz], [cell_lo], [cell_hi], [slice(None)]
    else:
        batch = np.asarray(batch, np.int64)
        bad = np.any(np.diff(batch) < 0) or np.any((batch < 0) | (batch >= len(xyz)))
        if batch.shape != pts.shape[:1] or bad:
            raise ValueError(f"batch: one non-decreasing id in [0, {len(xyz)}) per point")
        cuts = np.searchsorted(batch, np.arange(len(xyz) + 1)).tolist()
        rows = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    nb = len(xyz)
    cell_lo, cell_hi = ([None] * nb if w is None else w for w in (cell_lo, cell_hi))
    # Rounds: each live batch's search runs to its next Newton request,
    # and one _invert call answers them all.
    results, answers = [None] * nb, [None] * nb
    live = [(b, _search(xyz[b], pts[r], None if guesses is None else guesses[r],
                        cell_lo[b], cell_hi[b], max_steps)) for b, r in enumerate(rows)]
    while live:
        asked = []
        for (b, search), s in zip(live, answers):
            try:
                asked.append((b, search, search.send(s)))
            except StopIteration as stop:
                results[b] = stop.value
        live = [(b, search) for b, search, _ in asked]
        answers = _invert([q for *_, q in asked]) if asked else []
    if nb == 1:
        return results[0]
    parts = ([getattr(r, f.name) for r in results] for f in fields(DonorSearchResult))
    return DonorSearchResult(*map(np.concatenate, parts))
