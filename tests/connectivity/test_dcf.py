"""Integration tests for the distributed donor-search protocol."""

import numpy as np
import pytest

from repro.connectivity import (
    DcfConfig,
    RestartCache,
    dcf_rank_program,
    donor_search,
    find_igbps,
)
from repro.connectivity.dcf import DcfWorld
from repro.grids.generators import annulus_grid, cartesian_background
from repro.machine import MachineSpec, NetworkSpec, NodeSpec, Simulator
from repro.partition import build_partition


def machine(nodes):
    return MachineSpec(
        "test", nodes, NodeSpec(50e6), NetworkSpec(5e-5, 50e6)
    )


def two_grid_system():
    """Annulus (grid 0) embedded in a Cartesian background (grid 1)."""
    mid = annulus_grid("mid", ni=41, nj=13, r_inner=1.0, r_outer=2.5,
                       center=(0.0, 0.0))
    bg = cartesian_background("bg", (-4, -4), (4, 4), (33, 33))
    return [mid, bg]


def run_dcf(grids, nprocs, search_lists, restarts=None, procs_per_grid=None):
    part = build_partition(
        [g.dims for g in grids], nprocs, procs_per_grid=procs_per_grid
    )
    cfg = DcfConfig(search_lists=search_lists)
    world = DcfWorld(
        grid_xyz=[g.xyz for g in grids],
        grid_of_rank=[part.grid_of_rank(r) for r in range(nprocs)],
        rank_boxes=[part.subdomain_of(r).box for r in range(nprocs)],
        ranks_of_grid={
            gi: part.ranks_of_grid(gi) for gi in range(len(grids))
        },
        config=cfg,
    )
    igbp_sets = [find_igbps(g, i) for i, g in enumerate(grids)]

    def program(comm):
        rank = comm.rank
        gi = world.grid_of_rank[rank]
        box = world.rank_boxes[rank]
        # IGBPs whose receiver point lies in this rank's subdomain.
        s = igbp_sets[gi]
        multi = np.stack(
            np.unravel_index(s.flat_indices, grids[gi].dims), axis=-1
        )
        mine = np.all(
            (multi >= box.lo) & (multi < box.hi), axis=1
        )
        flat = s.flat_indices[mine]
        pts = s.points[mine]
        cache = restarts[rank] if restarts is not None else None
        out = yield from dcf_rank_program(comm, world, flat, pts, cache)
        return (flat, *out)

    sim = Simulator(machine(nprocs))
    sim.spawn_all(program)
    return sim.run(), part, igbp_sets


SEARCH_LISTS = {0: [1], 1: [0]}


class TestDistributedSearch:
    @pytest.mark.parametrize("nprocs", [2, 3, 5, 8])
    def test_matches_serial_search(self, nprocs):
        grids = two_grid_system()
        result, part, igbp_sets = run_dcf(grids, nprocs, SEARCH_LISTS)

        for rank_out in result.returns:
            flat, assign, stats = rank_out
            if flat.size == 0:
                continue
            gi = part.grid_of_rank
            # Serial reference: search the full donor grid.
            rgrid = part.grid_of_rank(rank_out and 0) if False else None
        # Compare per receiver grid against serial search.
        got = {0: {}, 1: {}}
        for rank, (flat, assign, stats) in enumerate(result.returns):
            g = part.grid_of_rank(rank)
            for k, fi in enumerate(flat):
                got[g][int(fi)] = (
                    assign["found"][k],
                    assign["cells"][k],
                    assign["fracs"][k],
                )
        for receiver, donor in ((0, 1), (1, 0)):
            s = find_igbps(grids[receiver], receiver)
            serial = donor_search(grids[donor].xyz, s.points)
            for k, fi in enumerate(s.flat_indices):
                dist_found, cells, fracs = got[receiver][int(fi)]
                assert dist_found == serial.found[k]
                if serial.found[k]:
                    assert np.allclose(
                        cells + fracs,
                        serial.cells[k] + serial.fracs[k],
                        atol=1e-6,
                    )

    def test_igbps_received_counts(self):
        """Sum of I(p) over donor ranks >= total routed IGBPs (forwards
        count again), and only donor-grid ranks receive searches for
        points of the other grid."""
        grids = two_grid_system()
        result, part, igbp_sets = run_dcf(grids, 4, SEARCH_LISTS)
        total_igbps = sum(s.count for s in igbp_sets)
        received = sum(s.igbps_received for _, _, s in result.returns)
        assert received >= total_igbps

    def test_search_steps_charged(self):
        grids = two_grid_system()
        result, _, _ = run_dcf(grids, 4, SEARCH_LISTS)
        assert sum(s.search_steps for _, _, s in result.returns) > 0
        assert sum(r.total_flops() for r in result.metrics.ranks) > 0

    def test_orphans_when_no_donor_exists(self):
        """Points outside every donor grid exhaust their search list."""
        mid = annulus_grid("mid", ni=21, nj=9, r_inner=1.0, r_outer=2.0,
                           center=(0.0, 0.0))
        # Tiny background that does not cover the annulus outer fringe.
        bg = cartesian_background("bg", (-0.5, -0.5), (0.5, 0.5), (9, 9))
        result, part, igbp_sets = run_dcf([mid, bg], 2, {0: [1], 1: [0]})
        stats = [s for _, _, s in result.returns]
        assert sum(s.orphans for s in stats) > 0

    def test_empty_search_list_resolves_immediately(self):
        grids = two_grid_system()
        result, _, _ = run_dcf(grids, 2, {0: [], 1: []})
        for flat, assign, stats in result.returns:
            assert not assign["found"].any()

    def test_restart_reduces_steps(self):
        """nth-level restart: a second identical solve with warm caches
        uses far fewer walk steps."""
        grids = two_grid_system()
        caches = [RestartCache() for _ in range(4)]
        r1, _, _ = run_dcf(grids, 4, SEARCH_LISTS, restarts=caches)
        cold = sum(s.search_steps for _, _, s in r1.returns)
        r2, _, _ = run_dcf(grids, 4, SEARCH_LISTS, restarts=caches)
        warm = sum(s.search_steps for _, _, s in r2.returns)
        assert warm < 0.7 * cold

    def test_deterministic(self):
        grids = two_grid_system()
        r1, _, _ = run_dcf(grids, 5, SEARCH_LISTS)
        r2, _, _ = run_dcf(grids, 5, SEARCH_LISTS)
        assert r1.elapsed == r2.elapsed

    def test_imbalanced_partition_takes_longer(self):
        """Connectivity work concentrates on donor ranks: a partition
        placing all background processors away from the overlap slows
        the solve versus a balanced one (sanity check that simulated
        time responds to partitioning)."""
        grids = two_grid_system()
        fast, _, _ = run_dcf(grids, 6, SEARCH_LISTS)
        slow, _, _ = run_dcf(
            grids, 6, SEARCH_LISTS, procs_per_grid=[5, 1]
        )
        assert fast.elapsed != slow.elapsed
