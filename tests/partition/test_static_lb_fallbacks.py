"""Tests for Algorithm 1's fallback paths (perturbation exhausted)."""

import pytest

from repro.partition import static_balance, static_lb


class TestGreedyRepair:
    def test_repair_engages_when_perturbation_disabled(self, monkeypatch):
        """With the paper's perturbation fallback disabled, the
        deterministic greedy repair still yields a valid partition."""
        monkeypatch.setattr(static_lb, "MAX_PERTURBATIONS", 0)
        r = static_balance([1000, 1000], 3)
        assert r.used_repair
        assert sum(r.procs_per_grid) == 3
        assert sorted(r.procs_per_grid) == [1, 2]

    def test_repair_respects_constraints(self, monkeypatch):
        monkeypatch.setattr(static_lb, "MAX_PERTURBATIONS", 0)
        r = static_balance([1000, 1000], 5, min_points_constraints=[3, 1])
        assert sum(r.procs_per_grid) == 5
        assert r.procs_per_grid[0] >= 3

    def test_repair_tau_reported(self, monkeypatch):
        monkeypatch.setattr(static_lb, "MAX_PERTURBATIONS", 0)
        r = static_balance([1000, 1000], 3)
        assert r.tau >= 0.0

    def test_normal_path_does_not_repair(self):
        r = static_balance([300, 100], 4)
        assert not r.used_repair

    def test_repair_prefers_loaded_grid(self, monkeypatch):
        """The repair hands extra processors to the grid with the most
        points per processor."""
        monkeypatch.setattr(static_lb, "MAX_PERTURBATIONS", 0)
        monkeypatch.setattr(static_lb, "MAX_TOLERANCE_ITERS", 1)
        r = static_balance([900, 100, 100], 11)
        assert sum(r.procs_per_grid) == 11
        assert r.procs_per_grid[0] >= 8


class TestOvershootDirection:
    def test_many_tiny_grids_overshoot(self):
        """The np>=1 clamp can make the initial total exceed NP; the
        printed (growing-eps) direction of the paper then applies."""
        grids = [10_000] + [10] * 5
        r = static_balance(grids, 6)
        assert r.procs_per_grid == (1, 1, 1, 1, 1, 1)

    def test_overshoot_with_room(self):
        grids = [10_000] + [10] * 5
        r = static_balance(grids, 8)
        assert sum(r.procs_per_grid) == 8
        assert r.procs_per_grid[0] == 3
