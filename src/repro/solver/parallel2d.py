"""Fine-grained data-parallel 2-D flow solve on the simulated machine.

The paper's OVERFLOW implementation uses "both coarse-grained
parallelism between grids and fine-grained parallelism within grids"
(section 2.1, Fig. 2): a grid's index space is split into subdomains,
halo faces are exchanged per sweep, and — crucially — "implicitness is
maintained across the subdomains on each component so the solution
convergence characteristics remain unchanged with different numbers of
processors".

This module realises that within-grid level for the 2-D solver: each
SimMPI rank owns one index-space box of a single grid, exchanges
two-deep halo layers (the JST stencil width), and the factored implicit
sweeps run as *pipelined distributed Thomas* solves
(:func:`repro.solver.numerics.tridiag_forward_chunk` /
``tridiag_backward_chunk``): forward elimination flows downstream
across each rank row, back substitution upstream, so the tridiagonal
systems are exact — not subdomain-truncated.  The partition-
independence claim is therefore *testable*: the distributed update
equals the serial :class:`repro.solver.solver2d.Solver2D` update to
round-off for any processor count
(``tests/solver/test_parallel2d.py``).

Limitations: physical (non-periodic) boundaries only — O-grids run
through the serial solver.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.backend import ExecutionBackend, get_backend
from repro.grids.gridmetrics import metrics2d
from repro.grids.structured import CurvilinearGrid
from repro.machine.spec import MachineSpec
from repro.solver import boundary as bc
from repro.solver.flux import inviscid_residual, spectral_radii
from repro.solver.numerics import (
    tridiag_backward_chunk,
    tridiag_forward_chunk,
)
from repro.solver.state import FlowConfig, sanity_check
from repro.solver.viscous import laminar_viscosity, viscous_residual
from repro.solver.workmodel import DEFAULT_WORK_MODEL

GHOSTS = 2
TAG_HALO = 501
TAG_PIPE_FWD = 502
TAG_PIPE_BWD = 503


def rank_lattice(dims: tuple[int, int], nparts: int) -> tuple[int, int]:
    """Split ``nparts`` into a (px, py) lattice minimising halo area."""
    best = None
    for px in range(1, nparts + 1):
        if nparts % px:
            continue
        py = nparts // px
        if dims[0] // px < GHOSTS + 1 or dims[1] // py < GHOSTS + 1:
            continue
        halo = (px - 1) * dims[1] + (py - 1) * dims[0]
        if best is None or halo < best[0]:
            best = (halo, px, py)
    if best is None:
        raise ValueError(
            f"cannot lay {nparts} ranks over a {dims} grid with "
            f"{GHOSTS}-deep halos"
        )
    return best[1], best[2]


def _splits(n: int, parts: int) -> list[tuple[int, int]]:
    """Near-equal contiguous ranges covering [0, n)."""
    base, extra = divmod(n, parts)
    out = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def _solver_program(comm, *, grid, cfg, px, py, ix, jy, nsteps, dt):
    """One rank's box of the ``px`` x ``py`` lattice (row-major over
    the ``ix`` / ``jy`` splits) advanced ``nsteps`` of ``dt``; returns
    its owned ``q`` block (``functools.partial`` of it is the picklable
    rank program)."""
    qinf = cfg.freestream()
    mu_lam = laminar_viscosity(cfg.mach, cfg.reynolds) if grid.viscous else 0.0
    g = cfg.gas.gamma
    rank = comm.rank
    cx, cy = rank % px, rank // px
    (i0, i1), (j0, j1) = ix[cx], jy[cy]
    nx, ny = i1 - i0, j1 - j0
    gl = GHOSTS if cx > 0 else 0
    gr = GHOSTS if cx < px - 1 else 0
    gb = GHOSTS if cy > 0 else 0
    gt = GHOSTS if cy < py - 1 else 0
    xyz = np.ascontiguousarray(grid.xyz[i0 - gl : i1 + gr, j0 - gb : j1 + gt])
    m = metrics2d(xyz)
    q = np.broadcast_to(qinf, xyz.shape[:2] + (4,)).copy()
    own = (slice(gl, gl + nx), slice(gb, gb + ny))

    west = rank - 1 if cx > 0 else None
    east = rank + 1 if cx < px - 1 else None
    south = rank - px if cy > 0 else None
    north = rank + px if cy < py - 1 else None

    def exchange_halos():
        q_own = q[own]
        for dst, block in (
            (west, q_own[:GHOSTS]),
            (east, q_own[-GHOSTS:]),
            (south, q_own[:, :GHOSTS]),
            (north, q_own[:, -GHOSTS:]),
        ):
            if dst is not None:
                payload = np.ascontiguousarray(block)
                yield from comm.send(dst, TAG_HALO, payload, nbytes=payload.nbytes)
        if west is not None:
            data, _ = yield from comm.recv(west, TAG_HALO)
            q[:gl, gb : gb + ny] = data
        if east is not None:
            data, _ = yield from comm.recv(east, TAG_HALO)
            q[gl + nx :, gb : gb + ny] = data
        if south is not None:
            data, _ = yield from comm.recv(south, TAG_HALO)
            q[gl : gl + nx, :gb] = data
        if north is not None:
            data, _ = yield from comm.recv(north, TAG_HALO)
            q[gl : gl + nx, gb + ny :] = data

    def pipelined_sweep(d_own, nu_padded, axis):
        """Exact distributed (I + delta(nu)) solve along ``axis``.

        ``d_own`` is the right-hand side at owned points, laid out
        (nx, ny, 4); returns the solution in the same layout.
        Coefficients come from the padded ``nu`` so interface couplings
        across rank boundaries match the serial operator exactly.
        """
        if axis == 0:
            prev, nxt = west, east
            first, last = cx == 0, cx == px - 1
            o0, o1 = gl, gl + nx
            c0, c1 = gb, gb + ny
            # (cross=j, sweep=i)
            nu_cs = np.moveaxis(nu_padded, 0, -1)[c0:c1]
            d = np.moveaxis(np.swapaxes(d_own, 0, 1), -1, 0)
        else:
            prev, nxt = south, north
            first, last = cy == 0, cy == py - 1
            o0, o1 = gb, gb + ny
            c0, c1 = gl, gl + nx
            nu_cs = nu_padded[c0:c1]
            d = np.moveaxis(d_own, -1, 0)
        # d: (4, cross, sweep)
        half = 0.5 * (nu_cs[:, :-1] + nu_cs[:, 1:])
        span = o1 - o0
        lower = np.zeros((c1 - c0, span))
        upper = np.zeros((c1 - c0, span))
        if first:
            lower[:, 1:] = -half[:, o0 : o1 - 1]
        else:
            lower[:, :] = -half[:, o0 - 1 : o1 - 1]
        if last:
            upper[:, :-1] = -half[:, o0 : o1 - 1]
        else:
            upper[:, :] = -half[:, o0:o1]
        diag = 1.0 - lower - upper
        a4 = np.broadcast_to(lower, d.shape)
        b4 = np.broadcast_to(diag, d.shape)
        c4 = np.broadcast_to(upper, d.shape)

        if first:
            cp, dp = tridiag_forward_chunk(a4, b4, c4, d)
        else:
            seed, _ = yield from comm.recv(prev, TAG_PIPE_FWD)
            cp, dp = tridiag_forward_chunk(a4, b4, c4, d, seed[0], seed[1])
        if not last:
            tail = (
                np.ascontiguousarray(cp[..., -1]),
                np.ascontiguousarray(dp[..., -1]),
            )
            yield from comm.send(nxt, TAG_PIPE_FWD, tail, nbytes=2 * tail[0].nbytes)
            xnext, _ = yield from comm.recv(nxt, TAG_PIPE_BWD)
            x = tridiag_backward_chunk(cp, dp, xnext)
        else:
            x = tridiag_backward_chunk(cp, dp)
        if not first:
            head = np.ascontiguousarray(x[..., 0])
            yield from comm.send(prev, TAG_PIPE_BWD, head, nbytes=head.nbytes)
        # Back to (nx, ny, 4).
        out = np.moveaxis(x, 0, -1)  # (cross, sweep, 4)
        if axis == 0:
            out = np.swapaxes(out, 0, 1)
        return np.ascontiguousarray(out)

    def apply_bcs():
        for b in grid.boundaries:
            axis = {"i": 0, "j": 1}[b.face[0]]
            if b.face.endswith("min"):
                on_edge = cx == 0 if axis == 0 else cy == 0
            else:
                on_edge = cx == px - 1 if axis == 0 else cy == py - 1
            if not on_edge:
                continue
            if b.kind == "farfield":
                bc.apply_farfield(q, b.face, qinf)
            elif b.kind == "wall":
                normals = bc.wall_normals(xyz, b.face)
                bc.apply_wall(q, b.face, grid.viscous, g, normals)

    # Virtual compute charge per step (the arithmetic itself runs in
    # host numpy; the simulated clock needs the work model).
    step_flops = DEFAULT_WORK_MODEL.flow_flops(
        nx * ny, grid.viscous, grid.turbulence, 2
    )

    # No pre-step BC application: the serial solver starts from raw
    # freestream and applies BCs at the end of each step; match it
    # exactly so partition-independence is checkable.
    for _ in range(nsteps):
        yield from comm.compute(flops=step_flops, points_per_node=nx * ny)
        yield from exchange_halos()
        r = inviscid_residual(q, m, g, cfg.k2, cfg.k4)
        if grid.viscous:
            r -= viscous_residual(q, m, g, cfg.gas.prandtl, mu_lam)
        rhs = (-dt * r / m.jac[..., None])[own]
        lam_xi, lam_eta = spectral_radii(q, m, g)
        dq = yield from pipelined_sweep(rhs, dt * lam_xi / m.jac_abs, axis=0)
        dq = yield from pipelined_sweep(dq, dt * lam_eta / m.jac_abs, axis=1)
        q[own] += dq
        apply_bcs()
        sanity_check(q[own], g, where=f"rank {rank}")
    return np.ascontiguousarray(q[own])


class ParallelSolver2D:
    """One component grid advanced by ``machine.nodes`` ranks."""

    def __init__(
        self,
        grid: CurvilinearGrid,
        config: FlowConfig,
        machine: MachineSpec,
        backend: str | ExecutionBackend = "sim",
    ):
        if grid.ndim != 2:
            raise ValueError("ParallelSolver2D needs a 2-D grid")
        if any(b.kind == "periodic" for b in grid.boundaries):
            raise ValueError("periodic grids are handled by the serial solver")
        self.grid = grid
        self.config = config
        self.machine = machine
        self.backend = (
            backend
            if isinstance(backend, ExecutionBackend)
            else get_backend(backend)
        )
        self.px, self.py = rank_lattice(grid.dims, machine.nodes)
        self.ix = _splits(grid.dims[0], self.px)
        self.jy = _splits(grid.dims[1], self.py)

    # ------------------------------------------------------------------

    def run(self, nsteps: int, dt: float):
        """Advance ``nsteps`` of size ``dt``; returns (q_global, result).

        ``result`` is a :class:`repro.backend.BackendResult`; under the
        default ``sim`` backend its ``elapsed`` is modeled virtual time,
        under ``mp`` it is measured wall time (physics identical).
        """
        grid = self.grid
        program = functools.partial(
            _solver_program, grid=grid, cfg=self.config, px=self.px,
            py=self.py, ix=self.ix, jy=self.jy, nsteps=nsteps, dt=dt,
        )
        out = self.backend.run_spmd(self.machine, program)
        q_global = np.empty(grid.dims + (4,), dtype=float)
        for rank, block in enumerate(out.returns):
            (i0, i1), (j0, j1) = self.ix[rank % self.px], self.jy[rank // self.px]
            q_global[i0:i1, j0:j1] = block
        return q_global, out
