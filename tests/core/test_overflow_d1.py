"""Integration tests for the OVERFLOW-D1 performance driver."""

import math

import numpy as np
import pytest

from repro.cases import airfoil_case
from repro.connectivity.holecut import cut_holes
from repro.connectivity.igbp import find_igbps
from repro.core import OverflowD1, overflow_d1, speedup_table
from repro.core.overflow_d1 import (
    PHASE_DCF,
    PHASE_FLOW,
    PHASE_MOTION,
    _halo_neighbors,
    _shared_face,
    _WorldState,
)
from repro.grids.subdomain import Box
from repro.machine import sp, sp2
from repro.machine.simmpi import Comm
from repro.partition import build_partition

SCALE = 0.05  # tiny grids: fast tests, same code paths


def run(nodes=4, nsteps=3, **kw):
    cfg = airfoil_case(machine=sp2(nodes=nodes), scale=SCALE,
                       nsteps=nsteps, **kw)
    return OverflowD1(cfg).run(), cfg


class TestSharedFace:
    def test_abutting_boxes(self):
        a = Box((0, 0), (4, 6))
        b = Box((4, 0), (8, 6))
        assert _shared_face(a, b) == 6

    def test_partial_overlap_range(self):
        a = Box((0, 0), (4, 4))
        b = Box((4, 2), (8, 8))
        assert _shared_face(a, b) == 2

    def test_disjoint(self):
        a = Box((0, 0), (4, 4))
        b = Box((6, 0), (8, 4))
        assert _shared_face(a, b) == 0

    def test_corner_touch_is_not_face(self):
        a = Box((0, 0), (4, 4))
        b = Box((4, 4), (8, 8))
        assert _shared_face(a, b) == 0

    def test_neighbors_symmetric(self):
        part = build_partition([(20, 20), (30, 10)], 6)
        nbrs = _halo_neighbors(part)
        for r, lst in enumerate(nbrs):
            for other, shared in lst:
                assert (r, shared) in [
                    (a, s) for a, s in nbrs[other]
                ]
                # Neighbours always on the same grid.
                assert part.grid_of_rank(other) == part.grid_of_rank(r)


class TestLazyWorldPrep:
    """``advance`` only moves grids; holes and IGBPs are prepared per
    grid on first read — in the phase the work model charges them to."""

    def test_memo_fills_per_grid_and_equals_eager_prep(self):
        cfg = airfoil_case(machine=sp2(nodes=4), scale=0.1)
        world = _WorldState(cfg)
        world.advance(3 * cfg.dt)
        assert world.memo == {}
        part = build_partition([g.dims for g in cfg.grids], 4)
        iblanks = cut_holes(world.grids)
        for rank in range(part.nprocs):
            gi = part.grid_of_rank(rank)
            seen = set(world.memo)
            flat, pts = world.own_igbps(part, rank)
            assert set(world.memo) == seen | {gi}
            eager = find_igbps(
                world.grids[gi], gi, iblanks[gi], cfg.fringe_layers
            )
            memo = world.memo[gi]
            assert np.array_equal(memo.flat_indices, eager.flat_indices)
            assert np.array_equal(memo.points, eager.points)
            assert np.isin(flat, eager.flat_indices).all()
            assert np.array_equal(pts, world.grids[gi].points_flat()[flat])
        # Every rank calls advance; only a real move empties the memo.
        world.advance(3 * cfg.dt)
        assert set(world.memo) == set(range(len(cfg.grids)))
        world.advance(0.0)
        assert world.memo == {}

    def test_hole_cutting_runs_inside_the_dcf3d_phase(self, monkeypatch):
        """Barriers fence the phases, so between a rank's
        ``set_phase(DCF3D)`` and the end-of-step barrier no rank can
        set any other phase: the last phase set is the caller's."""
        phases, cuts = [], []
        set_phase = Comm.set_phase

        def spy_phase(comm, phase):
            phases.append(phase)
            return set_phase(comm, phase)

        def spy_cut(grids, **kw):
            cuts.append((phases[-1] if phases else None, kw["receivers"]))
            return cut_holes(grids, **kw)

        monkeypatch.setattr(Comm, "set_phase", spy_phase)
        monkeypatch.setattr(overflow_d1, "cut_holes", spy_cut)
        cfg = airfoil_case(machine=sp2(nodes=4), scale=SCALE, nsteps=2)
        OverflowD1(cfg).run()
        steps = overflow_d1._NearBody.warmup_steps + 2
        assert [phase for phase, _ in cuts] == [PHASE_DCF] * 3 * steps
        asked = [r for _, r in cuts]
        for k in range(steps):  # once per (grid, step)
            assert sorted(asked[3 * k : 3 * k + 3]) == [(0,), (1,), (2,)]


class TestRun:
    def test_basic_run(self):
        result, cfg = run(nodes=4, nsteps=3)
        assert result.nprocs == 4
        assert result.nsteps == 3
        assert result.elapsed > 0
        assert result.time_per_step == pytest.approx(result.elapsed / 3)

    def test_phases_present(self):
        result, _ = run()
        assert result.phase_total(PHASE_FLOW) > 0
        assert result.phase_total(PHASE_DCF) > 0
        assert result.phase_total(PHASE_MOTION) > 0

    def test_pct_dcf3d_in_range(self):
        result, _ = run()
        assert 0 < result.pct_dcf3d < 100

    def test_flops_accounted(self):
        result, cfg = run(nodes=4, nsteps=3)
        # At least the flow-solve arithmetic must be charged.
        min_flow = 3 * sum(
            cfg.work.flow_flops(g.npoints, g.viscous, g.turbulence, 2)
            for g in cfg.grids
        )
        assert result.total_flops >= min_flow

    def test_deterministic(self):
        r1, _ = run(nodes=3, nsteps=2)
        r2, _ = run(nodes=3, nsteps=2)
        assert r1.elapsed == r2.elapsed

    def test_more_nodes_faster(self):
        r3, _ = run(nodes=3, nsteps=3)
        r12, _ = run(nodes=12, nsteps=3)
        assert r12.time_per_step < r3.time_per_step

    def test_speedup_reasonable(self):
        r3, _ = run(nodes=3, nsteps=3)
        r12, _ = run(nodes=12, nsteps=3)
        speedup = r3.time_per_step / r12.time_per_step
        assert 1.5 < speedup < 6.0  # ideal is 4

    def test_sp_faster_than_sp2(self):
        cfg2 = airfoil_case(machine=sp2(nodes=4), scale=SCALE, nsteps=2)
        cfgp = airfoil_case(machine=sp(nodes=4), scale=SCALE, nsteps=2)
        t2 = OverflowD1(cfg2).run().time_per_step
        tp = OverflowD1(cfgp).run().time_per_step
        assert tp < t2

    def test_static_partition_stable_with_infinite_f0(self):
        result, _ = run(nodes=6, nsteps=4)
        assert len(result.partition_history) == 1

    def test_warmup_steps_excluded_from_metrics(self, monkeypatch):
        ra, _ = run(nodes=3, nsteps=2)
        # Warmup already is 1; more warmup should not change the number
        # of measured steps.
        monkeypatch.setattr(overflow_d1._NearBody, "warmup_steps", 3)
        cfg = airfoil_case(machine=sp2(nodes=3), scale=SCALE, nsteps=2)
        rb = OverflowD1(cfg).run()
        assert rb.nsteps == 2
        assert sum(e.nsteps for e in rb.epochs) == 2


class TestDynamicLoadBalance:
    def test_finite_f0_runs_in_epochs(self):
        cfg = airfoil_case(
            machine=sp2(nodes=6), scale=SCALE, nsteps=6, f0=5.0
        )
        cfg.lb_check_interval = 2
        result = OverflowD1(cfg).run()
        assert sum(e.nsteps for e in result.epochs) == 6
        assert len(result.epochs) == 3

    def test_low_f0_can_repartition(self):
        """With a very aggressive threshold the partition may change;
        either way processors are conserved and the run completes."""
        cfg = airfoil_case(
            machine=sp2(nodes=6), scale=SCALE, nsteps=6, f0=1.2
        )
        cfg.lb_check_interval = 2
        result = OverflowD1(cfg).run()
        for _, procs in result.partition_history:
            assert sum(procs) == 6

    def test_igbp_counts_collected(self):
        result, _ = run(nodes=4, nsteps=3)
        igbp = result.epochs[0].igbp.per_step()
        assert igbp.shape == (3, 4)
        assert igbp.sum() > 0


class TestSpeedupTable:
    def test_table_from_runs(self):
        runs = []
        for nodes in (3, 6, 12):
            cfg = airfoil_case(machine=sp2(nodes=nodes), scale=SCALE,
                               nsteps=2)
            runs.append(OverflowD1(cfg).run())
        total = airfoil_case(machine=sp2(nodes=3), scale=SCALE).total_gridpoints
        table = speedup_table(runs, total)
        assert [r["nodes"] for r in table.rows] == [3, 6, 12]
        assert table.rows[0]["speedup"] == pytest.approx(1.0)
        assert table.rows[2]["speedup"] > table.rows[1]["speedup"] > 1.0
        # Formatted output contains the headers.
        text = table.format()
        assert "%dcf3d" in text and "speedup" in text

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError):
            speedup_table([], 1000)
