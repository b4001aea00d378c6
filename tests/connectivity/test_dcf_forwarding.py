"""Tests for the forwarding path of the distributed donor search.

"If the search happens to hit a processor boundary, the search request
is forwarded to the neighboring processor on the grid and the search is
continued" (paper section 2.2).  Forwarding is exercised by seeding the
restart cache with *stale* donor cells owned by the wrong rank — what a
moving-grid run produces whenever a donor drifts across a subdomain
boundary between steps.
"""

import numpy as np
import pytest

from repro.connectivity import (
    DcfConfig,
    RestartCache,
    dcf_rank_program,
    find_igbps,
)
from repro.connectivity.dcf import DcfWorld
from repro.grids.generators import (
    annulus_grid,
    body_of_revolution_grid,
    cartesian_background,
)
from repro.machine import MachineSpec, NetworkSpec, NodeSpec, Simulator
from repro.partition import build_partition


def run(grids, nprocs, caches, search_lists, max_hops=20,
        procs_per_grid=None):
    part = build_partition(
        [g.dims for g in grids], nprocs, procs_per_grid=procs_per_grid
    )
    world = DcfWorld(
        grid_xyz=[g.xyz for g in grids],
        grid_of_rank=[part.grid_of_rank(r) for r in range(nprocs)],
        rank_boxes=[part.subdomain_of(r).box for r in range(nprocs)],
        ranks_of_grid={gi: part.ranks_of_grid(gi) for gi in range(len(grids))},
        config=DcfConfig(search_lists=search_lists,
                         max_forward_hops=max_hops),
    )
    igbp_sets = [find_igbps(g, i) for i, g in enumerate(grids)]

    def program(comm):
        rank = comm.rank
        gi = world.grid_of_rank[rank]
        box = world.rank_boxes[rank]
        s = igbp_sets[gi]
        multi = np.stack(
            np.unravel_index(s.flat_indices, grids[gi].dims), axis=-1
        )
        mine = np.all((multi >= box.lo) & (multi < box.hi), axis=1)
        out = yield from dcf_rank_program(
            comm, world, s.flat_indices[mine], s.points[mine],
            caches[rank],
        )
        return (s.flat_indices[mine], *out)

    machine = MachineSpec("t", nprocs, NodeSpec(50e6), NetworkSpec(5e-5, 50e6))
    sim = Simulator(machine)
    sim.spawn_all(program)
    result = sim.run()
    return result, part, igbp_sets


def stale_cache_system():
    """Annulus over a background split 4 ways in i, with the annulus's
    cached donors pointing at the wrong end of the background."""
    mid = annulus_grid("mid", ni=33, nj=9, r_inner=1.0, r_outer=2.2,
                       center=(0.0, 0.0))
    bg = cartesian_background("bg", (-3, -3), (3, 3), (33, 17))
    grids = [mid, bg]
    caches = []
    s = find_igbps(mid, 0)
    for _ in range(5):
        cache = RestartCache()
        # Stale donors: everything allegedly in the background's first
        # columns (cells owned by the first bg rank).
        cache.store(
            0, 1,
            s.flat_indices,
            np.tile([1, 8], (s.count, 1)),
            np.ones(s.count, dtype=bool),
        )
        caches.append(cache)
    return grids, caches


class TestForwarding:
    def test_stale_hints_are_forwarded_to_the_right_owner(self):
        grids, caches = stale_cache_system()
        result, part, _ = run(
            grids, 5, caches, {0: [1], 1: [0]}, procs_per_grid=[1, 4]
        )
        stats = [r[2] for r in result.returns]
        assert sum(st.forwards for st in stats) > 0
        # Despite the bad hints every point resolves, and correctly.
        from repro.connectivity import donor_search

        flat0, assign, _ = result.returns[0]
        serial = donor_search(grids[1].xyz, grids[0].points_flat()[flat0])
        hit = serial.found
        assert np.array_equal(assign["found"], hit)
        ok = assign["found"]
        assert np.allclose(
            assign["cells"][ok] + assign["fracs"][ok],
            serial.cells[ok] + serial.fracs[ok],
            atol=1e-6,
        )

    def test_stale_hints_are_forwarded_in_3d(self):
        """A store body inside a 3-D background split four ways, every
        cached donor cell sitting in one corner of the background."""
        body = body_of_revolution_grid(
            "body", ni=13, nj=9, nk=7, length=1.0, outer_radius=0.4
        )
        bg = cartesian_background(
            "bg", (-1, -1, -1), (2, 1, 1), (25, 13, 13)
        )
        grids = [body, bg]
        s = find_igbps(body, 0)
        caches = []
        for _ in range(5):
            cache = RestartCache()
            cache.store(
                0, 1, s.flat_indices,
                np.tile([1, 1, 1], (s.count, 1)),
                np.ones(s.count, dtype=bool),
            )
            caches.append(cache)
        result, part, _ = run(
            grids, 5, caches, {0: [1], 1: [0]}, procs_per_grid=[1, 4]
        )
        owners = {part.subdomain_of(r).box.lo for r in range(1, 5)}
        assert len(owners) == 4  # a real split, not four copies
        assert sum(r[2].forwards for r in result.returns) > 0
        from repro.connectivity import donor_search

        flat0, assign, _ = result.returns[0]
        serial = donor_search(bg.xyz, body.points_flat()[flat0])
        assert serial.found.all()
        assert np.array_equal(assign["found"], serial.found)
        assert np.allclose(
            assign["cells"] + assign["fracs"],
            serial.cells + serial.fracs,
            atol=1e-6,
        )
        # Every donor rank is the owner of the cell it reported.
        boxes = {r: part.subdomain_of(r).box for r in part.ranks_of_grid(1)}
        world_owner = [
            next(
                r for r, b in boxes.items()
                if all(lo <= i < hi for lo, i, hi in zip(b.lo, c, b.hi))
            )
            for c in assign["cells"]
        ]
        assert assign["donor_rank"].tolist() == world_owner

    def test_hop_budget_caps_chains(self):
        """With a zero hop budget, stale hints cannot be forwarded; the
        retry machinery still resolves points through re-routing."""
        grids, caches = stale_cache_system()
        result, _, _ = run(
            grids, 5, caches, {0: [1], 1: [0]}, max_hops=0,
            procs_per_grid=[1, 4],
        )
        stats = [r[2] for r in result.returns]
        assert sum(st.forwards for st in stats) == 0
        # The protocol still terminates and answers every point.
        flat0, assign, _ = result.returns[0]
        assert assign["found"].shape[0] == flat0.shape[0]
