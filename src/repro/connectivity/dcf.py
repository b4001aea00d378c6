"""The distributed asynchronous donor-search protocol (paper Fig. 3).

Per connectivity solve each rank:

1. takes part in a global exchange of subdomain bounding boxes ("the
   bounding box information is broadcast globally");
2. routes each of its inter-grid boundary points to a processor of the
   first grid on that point's search list whose bounding box contains
   it, as one batched SEARCH message per destination;
3. enters an asynchronous service loop that blocks (``Comm.waitany``)
   until a SEARCH, REPLY or termination message has arrived: incoming
   SEARCH requests are served at once (the windowed stencil-walk donor
   search on the local subdomain, one ``donor_search`` call per drain
   with one batch per frame), walks that exit the subdomain are
   FORWARDED to the neighbouring processor owning the exit cell, and
   results return to the *original* requester as REPLY messages —
   "processors can be performing searches simultaneously";
4. replies that report failure push the point to the next grid in its
   hierarchical search list;
5. termination: a rank that has resolved all its own points sends DONE
   to rank 0 but keeps servicing; when rank 0 holds DONE from everyone
   there can be no connectivity message still in flight (every request
   has been answered), so it sends FINISH to all and the phase ends.

The per-rank count of points received in SEARCH messages is I(p), the
quantity Algorithm 2 (dynamic load balancing) consumes; walk steps are
charged to the simulated clock through the work model, so connectivity
load imbalance emerges from real geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.connectivity.donorsearch import donor_search
from repro.connectivity.restart import RestartCache
from repro.grids.bbox import AABB
from repro.machine.event import ANY_SOURCE
from repro.solver.workmodel import DEFAULT_WORK_MODEL, WorkModel

TAG_SEARCH = 101
TAG_REPLY = 102
TAG_DONE = 103
TAG_FINISH = 104

#: Slack on the exchanged bounding boxes (points on a face still route).
BBOX_MARGIN = 1e-9

#: Hops a SEARCH may be forwarded between ranks of one grid before the
#: rank holding it answers for itself.
MAX_FORWARD_HOPS = 20


@dataclass
class DcfConfig:
    """Connectivity-phase settings."""

    search_lists: dict[int, list[int]]  # receiver grid -> donor grids, in order


@dataclass
class ConnectivityStats:
    """Per-rank accounting of one connectivity solve."""

    igbps_received: int = 0   # I(p): points served for other processors
    search_steps: int = 0     # stencil-walk iterations performed locally
    requests_sent: int = 0
    forwards: int = 0
    donors_found: int = 0
    orphans: int = 0          # points that exhausted their search list


@dataclass
class DcfWorld:
    """Read-only shared description of the overset system for one solve.

    In a real distributed run each rank would hold only its slice; the
    simulation shares the arrays but every rank *uses* only its own
    window (enforced by the windowed donor search).
    """

    grid_xyz: list[np.ndarray]          # coordinates per grid (current step)
    grid_of_rank: list[int]
    rank_boxes: list                    # index-space Box per rank
    ranks_of_grid: dict[int, list[int]]
    config: DcfConfig
    work: WorkModel = field(default_factory=lambda: DEFAULT_WORK_MODEL)

    def cell_owners(self, grid: int, cells: np.ndarray) -> np.ndarray:
        """Rank of ``grid`` owning each cell (by its low-corner node), or
        -1 where none does — the -1 rows of a cold hint array included."""
        owners = np.full(len(cells), -1, dtype=np.int64)
        for rank in self.ranks_of_grid[grid]:
            box = self.rank_boxes[rank]
            inside = np.all((cells >= box.lo) & (cells < box.hi), axis=1)
            owners[inside & (owners < 0)] = rank
        return owners

    def cell_window(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """Cell-index window a rank may search (its box, +1 halo node on
        the high side so seam cells are computable)."""
        box = self.rank_boxes[rank]
        dims = self.grid_xyz[self.grid_of_rank[rank]].shape[:-1]
        lo = np.array(box.lo, dtype=np.int64)
        hi = np.minimum(
            np.array(box.hi, dtype=np.int64) - 1, np.array(dims) - 2
        )
        return lo, hi


def _physical_bbox(world: DcfWorld, rank: int) -> tuple:
    """Bounding box (lo, hi arrays) of a rank's subdomain points,
    including the one-node halo on the high side so the cells spanning
    subdomain seams (searchable here per :meth:`DcfWorld.cell_window`)
    are covered by exactly this rank's box."""
    grid = world.grid_of_rank[rank]
    xyz = world.grid_xyz[grid]
    box = world.rank_boxes[rank]
    dims = xyz.shape[:-1]
    sl = tuple(
        slice(lo, min(hi + 1, d))
        for lo, hi, d in zip(box.lo, box.hi, dims)
    )
    box = AABB.of_points(xyz[sl])
    return box.lo, box.hi


def _by_destination(dst: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(destination, positions in dst)`` per distinct destination,
    ascending; positions keep their order (one stable argsort)."""
    order = np.argsort(dst, kind="stable")
    cuts = np.flatnonzero(np.diff(dst[order])) + 1
    return [(int(dst[g[0]]), g) for g in np.split(order, cuts) if g.size]


def dcf_rank_program(
    comm,
    world: DcfWorld,
    igbp_flat: np.ndarray,
    igbp_points: np.ndarray,
    restart: RestartCache | None = None,
):
    """Run one distributed connectivity solve on this rank.

    A generator to be ``yield from``-ed inside a SimMPI rank program.
    ``igbp_flat``/``igbp_points`` are the IGBPs this rank owns (receiver
    points lying in its subdomain).  Returns ``(assignment, stats)``
    where assignment maps each owned IGBP row to its donor.
    """
    rank = comm.rank
    cfg = world.config
    my_grid = world.grid_of_rank[rank]
    ndim = world.grid_xyz[0].shape[-1]
    window = world.cell_window(rank)  # the cells this rank may search
    stats = ConnectivityStats()

    # ------------------------------------------------------------ step 1
    lo, hi = _physical_bbox(world, rank)
    boxes_raw = yield from comm.allgather(
        (lo.tolist(), hi.tolist()), nbytes=2 * ndim * 8
    )
    rank_bboxes = [AABB(b[0], b[1]).inflated(BBOX_MARGIN) for b in boxes_raw]

    n = int(len(igbp_flat))
    result = {
        "found": np.zeros(n, dtype=bool),
        "donor_grid": np.full(n, -1, dtype=np.int64),
        "donor_rank": np.full(n, -1, dtype=np.int64),
        "cells": np.zeros((n, ndim), dtype=np.int64),
        "fracs": np.zeros((n, ndim), dtype=float),
    }
    level = np.zeros(n, dtype=np.int64)  # position in the candidate order
    resolved = np.zeros(n, dtype=bool)
    outstanding = 0  # points awaiting a reply

    search_list = np.array(cfg.search_lists.get(my_grid, []), dtype=np.int64)

    # Per-point donor-grid candidate order, one row per point: the grid
    # that donated last step first (the other half of the nth-level
    # restart), then the user's hierarchical search list.
    orders = np.tile(search_list, (n, 1))
    if restart is not None:
        cached = restart.donor_grids_of(my_grid, igbp_flat)
        front = np.argsort(orders != cached[:, None], axis=1, kind="stable")
        orders = np.take_along_axis(orders, front, axis=1)

    def route_points(active: np.ndarray):
        """Send each point to a rank of its current candidate grid — the
        owner of its cached donor cell, else the first rank whose
        bounding box contains it, else on to the next candidate — as one
        batched SEARCH message per destination; points that exhaust
        their candidates are orphans.

        Vectorised: cached-donor lookups and containment tests run per
        donor-grid batch rather than per point (this routine is on the
        per-timestep critical path for every rank).
        """
        nonlocal outstanding
        rows, dst, hints = [], [], []
        while active.size:
            alive = level[active] < search_list.size
            dead = active[~alive]
            dead = dead[~resolved[dead]]
            resolved[dead] = True
            stats.orphans += int(dead.size)
            active = active[alive]
            donor = orders[active, level[active]]
            unplaced = []
            for dg in np.unique(donor):
                sel = active[donor == dg]
                pts = igbp_points[sel]
                cells = np.full((sel.size, ndim), -1, dtype=np.int64)
                if restart is not None:
                    cells, _ = restart.hints_with_mask(
                        my_grid, int(dg), igbp_flat[sel], ndim
                    )
                to = world.cell_owners(int(dg), cells)
                for rk in world.ranks_of_grid[int(dg)]:
                    need = to < 0
                    if not need.any():
                        break
                    to[need & rank_bboxes[rk].contains(pts)] = rk
                placed = to >= 0
                rows.append(sel[placed])
                dst.append(to[placed])
                hints.append(cells[placed])
                level[sel[~placed]] += 1
                unplaced.append(sel[~placed])
            active = np.concatenate([active[:0], *unplaced])
        if not rows:
            return
        rows, dst, hints = (np.concatenate(a) for a in (rows, dst, hints))
        for to, at in _by_destination(dst):
            payload = {
                "requester": rank,
                "rows": rows[at],
                "points": igbp_points[rows[at]],
                "hints": hints[at],
                "hops": 0,
            }
            # Forming and tagging the IGBP list (step 1 of Fig. 3).
            yield from comm.compute(
                flops=at.size * world.work.igbp_request_flops
            )
            yield from comm.send(
                to, TAG_SEARCH, payload,
                nbytes=int(at.size * world.work.igbp_request_bytes),
            )
            stats.requests_sent += int(at.size)
            outstanding += int(at.size)

    # ------------------------------------------------------------ step 2
    yield from route_points(np.arange(n))

    # ------------------------------------------------------------ step 3
    #
    # Wake, then drain canonically: ``Comm.waitany`` sleeps until a
    # channel has an arrived message and says which; each ready channel
    # is emptied by ``Comm.drain_recv`` in (source, sequence) order,
    # SEARCH before REPLY before DONE.  Popping ``ANY_SOURCE`` messages
    # one by one in *arrival* order would be the wildcard race the
    # sanitizer reports; this way the order depends only on who sent
    # what (docs/PROTOCOL.md, tests/analysis/test_sanitizer.py).
    done_sent = False
    done_count = 0
    ready: tuple[int, ...] = ()  # nothing can have arrived unasked yet
    while True:
        if 0 in ready:
            frames = [p for p, _ in (yield from comm.drain_recv(ANY_SOURCE, TAG_SEARCH))]
            # One search per drain, a batch per frame (hints < 0: cold).
            nb, sizes = len(frames), [len(f["rows"]) for f in frames]
            results = donor_search(
                [world.grid_xyz[my_grid]] * nb,
                np.concatenate([f["points"] for f in frames]),
                np.concatenate([f["hints"] for f in frames]),
                cell_lo=[window[0]] * nb, cell_hi=[window[1]] * nb,
                batch=np.repeat(np.arange(nb), sizes),
            ).split(sizes)
            for payload, res in zip(frames, results):
                yield from _serve_search(comm, world, rank, payload, res, stats)

        if 1 in ready:
            for p, _status in (
                yield from comm.drain_recv(ANY_SOURCE, TAG_REPLY)
            ):
                rows = p["rows"]
                found = p["found"]
                outstanding -= int(rows.size)
                ok = rows[found]
                result["found"][ok] = True
                result["donor_grid"][ok] = p["donor_grid"]
                result["donor_rank"][ok] = p["donor_rank"]
                result["cells"][ok] = p["cells"][found]
                result["fracs"][ok] = p["fracs"][found]
                resolved[ok] = True
                stats.donors_found += int(found.sum())
                # Failed points: try the next grid in the hierarchy.
                bad = rows[~found]
                level[bad] += 1
                yield from route_points(bad)

        # Own work complete? Tell rank 0 (once).
        if not done_sent and resolved.all() and outstanding == 0:
            done_sent = True
            yield from comm.send(0, TAG_DONE, None, nbytes=8)

        if 2 in ready:
            if rank != 0:
                yield from comm.recv(0, TAG_FINISH)
                break
            done_count += len((yield from comm.drain_recv(ANY_SOURCE, TAG_DONE)))
            if done_count == comm.size:
                for dst in range(1, comm.size):
                    yield from comm.send(dst, TAG_FINISH, None, nbytes=8)
                break

        ready = yield from comm.waitany((
            (ANY_SOURCE, TAG_SEARCH),
            (ANY_SOURCE, TAG_REPLY),
            # FINISH only ever comes from rank 0: no wildcard at all.
            (ANY_SOURCE, TAG_DONE) if rank == 0 else (0, TAG_FINISH),
        ))

    if restart is not None:
        for dg in np.unique(search_list).tolist():
            sel = result["donor_grid"] == dg
            restart.store(
                my_grid, dg,
                igbp_flat[sel], result["cells"][sel], result["found"][sel],
            )
    return result, stats


def _serve_search(comm, world: DcfWorld, rank: int, payload: dict, res, stats):
    """Serve one SEARCH message whose search gave ``res``: compute
    charge, forwards and replies."""
    my_grid = world.grid_of_rank[rank]
    points = payload["points"]
    rows = payload["rows"]
    requester = payload["requester"]
    hops = payload["hops"]
    stats.igbps_received += int(rows.size)
    stats.search_steps += res.total_steps
    # Walk arithmetic plus the fixed per-point service cost (stencil
    # quality checks, coefficient computation, packing).
    yield from comm.compute(
        flops=world.work.search_flops(res.total_steps)
        + rows.size * world.work.igbp_service_flops
    )

    # Forward escapes whose exit cell belongs to a neighbour.
    dst = np.full(rows.size, -1, dtype=np.int64)
    if hops < MAX_FORWARD_HOPS:
        out = ~res.found & res.escaped
        owners = world.cell_owners(my_grid, res.cells[out])
        dst[out] = np.where(owners == rank, -1, owners)
    for to, ks in _by_destination(dst):
        if to < 0:
            continue  # answered here, below
        fwd = {
            "requester": requester,
            "rows": rows[ks],
            "points": points[ks],
            "hints": res.cells[ks],
            "hops": hops + 1,
        }
        stats.forwards += int(ks.size)
        yield from comm.send(
            to, TAG_SEARCH, fwd,
            nbytes=int(ks.size * world.work.igbp_request_bytes),
        )

    # Reply for everything answered here (found + definitively missing).
    # The interpolated boundary values travel with the reply (donor pays
    # the interpolation arithmetic): with connectivity redone every
    # timestep, piggybacking the interpolation exchange on the search
    # reply is the natural implementation and is charged here.
    nfound = int(res.found.sum())
    if nfound:
        yield from comm.compute(flops=nfound * world.work.interp_flops_per_igbp)
    answered = np.concatenate(
        [np.flatnonzero(res.found), np.flatnonzero(~res.found & (dst < 0))]
    )
    if answered.size:
        reply = {
            "rows": rows[answered],
            "found": res.found[answered],
            "cells": res.cells[answered],
            "fracs": res.fracs[answered],
            "donor_grid": my_grid,
            "donor_rank": rank,
        }
        yield from comm.send(
            requester, TAG_REPLY, reply,
            nbytes=int(answered.size * world.work.donor_reply_bytes),
        )
