"""Tests that the case builders match the paper's grid systems."""

import numpy as np
import pytest

from repro.cases import (
    UnknownCaseError,
    airfoil_case,
    airfoil_grids,
    case_entry,
    case_names,
    deltawing_case,
    deltawing_grids,
    register_case,
    store_case,
    store_grids,
    x38_case,
    x38_near_body_grids,
    x38_offbody_case,
)
from repro.cases.store import N_STORE_GRIDS, STORE_SEARCH_LISTS
from repro.connectivity.holecut import cut_holes
from repro.connectivity.igbp import find_igbps, igbp_ratio
from repro.machine import sp2


def system_ratio(cfg):
    iblanks = cut_holes(cfg.grids)
    sets = [
        find_igbps(g, i, iblanks[i], cfg.fringe_layers)
        for i, g in enumerate(cfg.grids)
    ]
    return igbp_ratio(sets, cfg.grids)


class TestAirfoilCase:
    def test_paper_scale_point_count(self):
        """Paper: composite total of 64K gridpoints, three roughly equal
        grids."""
        grids = airfoil_grids(scale=1.0)
        total = sum(g.npoints for g in grids)
        assert 57_000 < total < 71_000
        counts = [g.npoints for g in grids]
        assert max(counts) / min(counts) < 1.3

    def test_igbp_ratio_near_44e3(self):
        cfg = airfoil_case(machine=sp2(nodes=4), scale=1.0)
        ratio = system_ratio(cfg)
        assert 0.03 < ratio < 0.06  # paper: 44e-3

    def test_only_airfoil_moves(self):
        cfg = airfoil_case(machine=sp2(nodes=4), scale=0.1)
        assert list(cfg.motions.keys()) == [0]

    def test_scaling(self):
        small = sum(g.npoints for g in airfoil_grids(scale=0.25))
        full = sum(g.npoints for g in airfoil_grids(scale=1.0))
        assert small == pytest.approx(full / 4, rel=0.2)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            airfoil_grids(scale=0.0)

    def test_scaleup_construction(self):
        """Paper Table 2: coarsened (~1/4 pts) and refined (~4x pts)
        versions built by grid coarsen/refine keep the IGBP ratio."""
        base = airfoil_grids(scale=1.0)
        coarse = [g.coarsened() for g in base]
        total_c = sum(g.npoints for g in coarse)
        total_b = sum(g.npoints for g in base)
        assert total_c == pytest.approx(total_b / 4, rel=0.1)


class TestDeltaWingCase:
    def test_paper_scale_point_count(self):
        grids = deltawing_grids(scale=1.0)
        total = sum(g.npoints for g in grids)
        assert 0.8e6 < total < 1.25e6  # paper: ~1 million

    def test_four_grids_three_move(self):
        cfg = deltawing_case(machine=sp2(nodes=4), scale=0.01)
        assert len(cfg.grids) == 4
        assert sorted(cfg.motions.keys()) == [0, 1, 2]

    def test_igbp_ratio_small_scale(self):
        # At this tiny test scale surface/volume inflates the ratio far
        # above the paper's 33e-3; just check it is sane and nonzero.
        cfg = deltawing_case(machine=sp2(nodes=4), scale=0.01)
        ratio = system_ratio(cfg)
        assert 0.005 < ratio < 0.4

    def test_descent_speed_is_paper_value(self):
        cfg = deltawing_case(machine=sp2(nodes=4), scale=0.01)
        v = np.asarray(cfg.motions[0].velocity)
        assert np.linalg.norm(v) == pytest.approx(0.064)

    def test_viscous_no_turbulence(self):
        """Paper: viscous on all four grids, no turbulence models."""
        for g in deltawing_grids(scale=0.01):
            assert g.viscous
            assert not g.turbulence


class TestStoreCase:
    def test_sixteen_grids(self):
        grids = store_grids(scale=0.01)
        assert len(grids) == 16

    def test_paper_scale_point_count(self):
        grids = store_grids(scale=1.0)
        total = sum(g.npoints for g in grids)
        assert 0.62e6 < total < 1.0e6  # paper: 0.81 million

    def test_store_grids_move_wing_static(self):
        cfg = store_case(machine=sp2(nodes=16), scale=0.01)
        assert sorted(cfg.motions.keys()) == list(range(N_STORE_GRIDS))

    def test_backgrounds_inviscid_curvilinear_viscous(self):
        """Paper: viscous + Baldwin-Lomax on curvilinear grids, the
        three Cartesian backgrounds inviscid."""
        grids = store_grids(scale=0.01)
        for g in grids[:3]:
            assert g.viscous and g.turbulence
        for g in grids[13:]:
            assert not g.viscous

    def test_search_lists_cover_all_grids(self):
        for gi in range(16):
            assert gi in STORE_SEARCH_LISTS
            assert all(0 <= d < 16 and d != gi
                       for d in STORE_SEARCH_LISTS[gi])

    def test_igbp_ratio_higher_than_other_cases(self):
        """Paper: the store case's ratio (66e-3) is 1.5-2x the airfoil
        (44e-3) and delta wing (33e-3)."""
        store = store_case(machine=sp2(nodes=16), scale=0.02)
        delta = deltawing_case(machine=sp2(nodes=4), scale=0.02)
        assert system_ratio(store) > system_ratio(delta)


class TestX38:
    def test_near_body_grids(self):
        grids = x38_near_body_grids(scale=0.05)
        assert len(grids) == 3
        assert grids[0].viscous

    def test_offbody_case_builds(self):
        case = x38_offbody_case(machine=sp2(nodes=4), scale=0.05, nsteps=2)
        assert [g.name for g in case.near_body] == [
            g.name for g in x38_near_body_grids(scale=0.05)
        ]
        assert case.nsteps == 2
        assert not case.motions  # rigid vehicle holding attitude
        layout = case.make_manager().regenerate(
            [g.bounding_box() for g in case.near_body]
        )
        assert layout.npatches > 0
        assert max(layout.level_counts()) == case.max_level
        # Three pinned near-body grids + at least one patch group.
        with pytest.raises(ValueError, match="nodes"):
            x38_offbody_case(machine=sp2(nodes=3), scale=0.05)
        with pytest.raises(ValueError, match="scale"):
            x38_offbody_case(machine=sp2(nodes=4), scale=0.0)

    def test_case_builder_is_runnable_config(self):
        cfg = x38_case(machine=sp2(nodes=4), scale=0.3, nsteps=2)
        assert len(cfg.grids) == 3
        assert cfg.machine.nodes == 4
        assert not cfg.motions  # rigid vehicle holding attitude
        # Search lists reference valid grids symmetrically.
        for gi, donors in cfg.search_lists.items():
            assert 0 <= gi < 3
            for d in donors:
                assert gi in cfg.search_lists[d]


class TestRegistry:
    def test_holds_the_four_builtins(self):
        assert case_names() == ("airfoil", "deltawing", "store", "x38")

    def test_unknown_name_is_typed(self):
        with pytest.raises(
            UnknownCaseError,
            match="unknown case 'bogus'; choose from airfoil, deltawing",
        ) as info:
            case_entry("bogus")
        assert info.value.known == case_names()

    def test_a_name_registers_once(self):
        with pytest.raises(ValueError, match="already registered"):
            register_case("airfoil", airfoil_case)
