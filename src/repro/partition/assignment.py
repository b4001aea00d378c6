"""Partition: the concrete grid→processors / processor→subdomain maps.

The OVERFLOW parallel approach assigns a *processor group* to each
component grid (paper Fig. 2); inside a group, the grid is divided into
index-space subdomains by the prime-factor routine.  Ranks are numbered
globally: grid 0's subdomains first, then grid 1's, and so on — matching
the paper's setup where every processor executes its own code for its
portion of exactly one grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.grids.subdomain import Box, Subdomain
from repro.partition.decompose import prime_factor_decompose
from repro.partition.static_lb import StaticBalanceResult, static_balance


@dataclass
class Partition:
    """Assignment of every processor to one subdomain of one grid."""

    grid_dims: tuple[tuple[int, ...], ...]
    procs_per_grid: tuple[int, ...]
    subdomains: tuple[Subdomain, ...]  # indexed by global rank
    balance: StaticBalanceResult | None = None

    def __post_init__(self) -> None:
        if len(self.subdomains) != sum(self.procs_per_grid):
            raise ValueError("rank count inconsistent with procs_per_grid")

    # ------------------------------------------------------------------

    @property
    def nprocs(self) -> int:
        return len(self.subdomains)

    @property
    def ngrids(self) -> int:
        return len(self.grid_dims)

    def subdomain_of(self, rank: int) -> Subdomain:
        return self.subdomains[rank]

    def grid_of_rank(self, rank: int) -> int:
        return self.subdomains[rank].grid_index

    def ranks_of_grid(self, grid_index: int) -> list[int]:
        return [
            sd.rank for sd in self.subdomains if sd.grid_index == grid_index
        ]

    def points_per_rank(self) -> np.ndarray:
        return np.array([sd.npoints for sd in self.subdomains], dtype=np.int64)

    def load_imbalance(self) -> float:
        """max/avg gridpoints per rank (1.0 = perfect)."""
        pts = self.points_per_rank()
        return float(pts.max() / pts.mean())

    def __repr__(self) -> str:
        return (
            f"Partition({self.ngrids} grids over {self.nprocs} ranks, "
            f"imbalance={self.load_imbalance():.3f})"
        )


def build_partition(
    grid_dims: list[tuple[int, ...]],
    nprocs: int,
    procs_per_grid: list[int] | None = None,
    dtau: float = 0.1,
    exclude_ranks: Iterable[int] | None = None,
) -> Partition:
    """Static load balance + prime-factor decomposition in one call.

    ``procs_per_grid`` overrides Algorithm 1 when given (used by tests
    and by the dynamic rebalancer, which computes its own counts).

    ``exclude_ranks`` removes fail-stopped processors before balancing
    (elastic recovery, :mod:`repro.resilience`): Algorithm 1 runs over
    the survivor count and the returned :class:`Partition` covers
    survivor ranks renumbered contiguously ``0..n_survivors-1``
    (ULFM-style shrink).
    """
    gridpoints = [int(np.prod(d)) for d in grid_dims]
    excluded = sorted(set(int(r) for r in exclude_ranks or ()))
    balance: StaticBalanceResult | None = None
    if procs_per_grid is None:
        balance = static_balance(
            gridpoints,
            nprocs,
            dtau=dtau,
            exclude_ranks=excluded,
        )
        procs_per_grid = list(balance.procs_per_grid)
    elif excluded:
        raise ValueError(
            "exclude_ranks cannot be combined with an explicit "
            "procs_per_grid (the override already fixes the counts)"
        )
    nprocs -= len(excluded)
    if sum(procs_per_grid) != nprocs:
        raise ValueError(
            f"procs_per_grid sums to {sum(procs_per_grid)}, expected {nprocs}"
        )
    subdomains: list[Subdomain] = []
    rank = 0
    for gi, (dims, np_n) in enumerate(zip(grid_dims, procs_per_grid)):
        for box in prime_factor_decompose(tuple(dims), np_n):
            subdomains.append(Subdomain(grid_index=gi, rank=rank, box=box))
            rank += 1
    return Partition(
        grid_dims=tuple(tuple(d) for d in grid_dims),
        procs_per_grid=tuple(procs_per_grid),
        subdomains=tuple(subdomains),
        balance=balance,
    )
