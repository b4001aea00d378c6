"""Tests for the flop/byte work model."""

import pytest

from repro.machine import sp2
from repro.solver.workmodel import DEFAULT_WORK_MODEL, WorkModel


class TestFlowCosts:
    def test_viscous_costs_more(self):
        wm = DEFAULT_WORK_MODEL
        assert wm.flow_flops_per_point(True, False, 2) > wm.flow_flops_per_point(
            False, False, 2
        )

    def test_turbulence_adds(self):
        wm = DEFAULT_WORK_MODEL
        assert wm.flow_flops_per_point(True, True, 2) > wm.flow_flops_per_point(
            True, False, 2
        )

    def test_3d_factor(self):
        wm = DEFAULT_WORK_MODEL
        assert wm.flow_flops_per_point(False, False, 3) == pytest.approx(
            wm.ndim3_factor * wm.flow_flops_per_point(False, False, 2)
        )

    def test_variation_is_modest(self):
        """Paper section 3.0: work-per-point differences between viscous/
        inviscid/turbulent grids 'are not substantial' — under 2x here."""
        wm = DEFAULT_WORK_MODEL
        lo = wm.flow_flops_per_point(False, False, 2)
        hi = wm.flow_flops_per_point(True, True, 2)
        assert hi / lo < 2.0

    def test_flow_flops_scales_with_points(self):
        wm = DEFAULT_WORK_MODEL
        assert wm.flow_flops(2000, True, False, 2) == pytest.approx(
            2 * wm.flow_flops(1000, True, False, 2)
        )


class TestCalibration:
    def test_airfoil_step_time_near_paper(self):
        """Paper Table 2 (original case, 12 SP2 nodes): 0.285 s/step at
        ~5300 points/node.  The work model + SP2 machine model must land
        within a factor ~2 on the flow portion (~86% of the step)."""
        wm = DEFAULT_WORK_MODEL
        machine = sp2()
        pts = 5300
        flops = wm.flow_flops(pts, True, False, 2)
        t = machine.compute_time(flops, points_per_node=pts)
        assert 0.25 * 0.5 < t < 0.25 * 2.0

    def test_halo_bytes(self):
        assert DEFAULT_WORK_MODEL.halo_bytes(100) == 3200

    def test_search_flops(self):
        wm = DEFAULT_WORK_MODEL
        assert wm.search_flops(10) == pytest.approx(10 * wm.search_step_flops)
