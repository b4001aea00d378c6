"""Tests for Partition construction."""

import numpy as np
import pytest

from repro.partition import Partition, build_partition
from repro.grids.subdomain import Box, Subdomain


class TestBuildPartition:
    def test_end_to_end(self):
        part = build_partition([(40, 40), (40, 40), (40, 40)], 9)
        assert part.nprocs == 9
        assert part.procs_per_grid == (3, 3, 3)
        assert part.load_imbalance() < 1.2

    def test_rank_numbering_contiguous_by_grid(self):
        part = build_partition([(20, 20), (20, 20)], 4)
        assert part.grid_of_rank(0) == 0
        assert part.grid_of_rank(3) == 1
        assert part.ranks_of_grid(0) == [0, 1]
        assert part.ranks_of_grid(1) == [2, 3]

    def test_subdomain_rank_fields_match_position(self):
        part = build_partition([(30, 30), (10, 50)], 6)
        for r in range(part.nprocs):
            assert part.subdomain_of(r).rank == r

    def test_points_per_rank_conserved(self):
        dims = [(37, 23), (41, 19), (13, 61)]
        part = build_partition(dims, 7)
        assert part.points_per_rank().sum() == sum(
            int(np.prod(d)) for d in dims
        )

    def test_explicit_counts_override(self):
        part = build_partition([(40, 40), (40, 40)], 6, procs_per_grid=[5, 1])
        assert part.procs_per_grid == (5, 1)
        assert part.balance is None

    def test_explicit_counts_must_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            build_partition([(40, 40)], 6, procs_per_grid=[5])

    def test_oscillating_airfoil_shape(self):
        """Paper Fig. 2: three roughly equal grids on nine processors
        get three processors each."""
        part = build_partition([(147, 49), (147, 49), (85, 85)], 9)
        assert part.procs_per_grid == (3, 3, 3)


class TestPartitionValidation:
    def test_inconsistent_counts_raise(self):
        sd = Subdomain(0, 0, Box((0, 0), (4, 4)))
        with pytest.raises(ValueError, match="inconsistent"):
            Partition(((4, 4),), (2,), (sd,))
