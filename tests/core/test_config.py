"""Tests for CaseConfig validation."""

import math

import pytest

from repro.core import CaseConfig
from repro.grids.generators import annulus_grid, cartesian_background
from repro.machine import sp2


def grids():
    return [
        annulus_grid("mid", ni=21, nj=9),
        cartesian_background("bg", (-4, -4), (4, 4), (17, 17)),
    ]


def make(**kw):
    defaults = dict(
        name="t",
        grids=grids(),
        machine=sp2(nodes=2),
        search_lists={0: [1], 1: [0]},
    )
    defaults.update(kw)
    return CaseConfig(**defaults)


class TestValidation:
    def test_valid(self):
        cfg = make()
        assert cfg.total_gridpoints == 21 * 9 + 17 * 17
        assert cfg.ndim == 2

    def test_no_grids(self):
        with pytest.raises(ValueError, match="at least one grid"):
            make(grids=[])

    def test_bad_search_list_key(self):
        with pytest.raises(ValueError, match="unknown grid"):
            make(search_lists={7: [0]})

    def test_bad_search_list_entry(self):
        with pytest.raises(ValueError, match="out of range"):
            make(search_lists={0: [9]})

    def test_self_donation(self):
        with pytest.raises(ValueError, match="cannot donate to itself"):
            make(search_lists={0: [0]})

    def test_repeated_donor(self):
        # A repeat would re-send a point that missed grid 1 to grid 1,
        # and make the candidate count depend on the restart cache.
        with pytest.raises(
            ValueError, match="search list for grid 0 repeats donor 1"
        ):
            make(search_lists={0: [1, 1]})

    def test_motion_for_unknown_grid(self):
        from repro.motion import SteadyDescent

        with pytest.raises(ValueError, match="motion for unknown"):
            make(motions={5: SteadyDescent()})

    def test_bad_steps_dt(self):
        with pytest.raises(ValueError, match="nsteps"):
            make(nsteps=0)
        with pytest.raises(ValueError, match="dt"):
            make(dt=0.0)

    def test_default_f0_is_static_only(self):
        assert math.isinf(make().f0)

    @pytest.mark.parametrize("f0", [0.0, -1.0, -math.inf, math.nan])
    def test_non_positive_or_nan_f0_refused(self, f0):
        with pytest.raises(ValueError, match="f0 must be positive"):
            make(f0=f0)
