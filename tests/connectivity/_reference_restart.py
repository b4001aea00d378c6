"""REFERENCE ONLY: the dict-of-dicts ``RestartCache`` as it stood before
the array cache in ``repro.connectivity.restart`` replaced it, kept
verbatim below this paragraph as the oracle of ``test_restart.py``.

The "nth-level restart" warm start (paper section 2.2).

Proposed by Barszcz: donor locations from the previous timestep seed
the searches at the new timestep.  Because the stability-limited
timestep moves donors by less than about one receiving-grid cell per
step, warm-started walks converge in a handful of iterations instead of
a walk across the grid — the paper found "a considerable reduction in
the time spent in the connectivity solution" (ablated in
``benchmarks/test_ablation_restart.py``).
"""

from __future__ import annotations

import numpy as np


class RestartCache:
    """Per (receiver grid, donor grid) cache of last-known donor cells.

    Keys are (receiver_grid_index, donor_grid_index); values map the
    receiver's IGBP flat indices to donor cells.  The cache degrades
    gracefully: unknown points simply get no hint.
    """

    def __init__(self) -> None:
        self._cells: dict[tuple[int, int], dict[int, np.ndarray]] = {}
        self._donor_grid: dict[int, dict[int, int]] = {}
        self.hits = 0
        self.misses = 0

    def hints_with_mask(
        self,
        receiver: int,
        donor: int,
        flat_indices: np.ndarray,
        ndim: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-point cached donor cells and a known-mask (no filling).

        Unknown rows hold -1; callers that want a seedable array should
        use :meth:`hints`.
        """
        flat_indices = np.asarray(flat_indices)
        out = np.full((len(flat_indices), ndim), -1, dtype=np.int64)
        known = np.zeros(len(flat_indices), dtype=bool)
        table = self._cells.get((receiver, donor))
        if table:
            for row, fi in enumerate(flat_indices):
                cell = table.get(int(fi))
                if cell is not None:
                    out[row] = cell
                    known[row] = True
        self.hits += int(known.sum())
        self.misses += int((~known).sum())
        return out, known

    def hints(
        self,
        receiver: int,
        donor: int,
        flat_indices: np.ndarray,
        ndim: int,
    ) -> np.ndarray | None:
        """Guess cells for the given receiver points, or None when the
        cache has nothing for this (receiver, donor) pair."""
        out, known = self.hints_with_mask(receiver, donor, flat_indices, ndim)
        if not known.any():
            return None
        # Unknown points start from the median of the known donors —
        # a much better cold start than the grid center.
        if not known.all():
            out[~known] = np.median(out[known], axis=0).astype(np.int64)
        return out

    def store(
        self,
        receiver: int,
        donor: int,
        flat_indices: np.ndarray,
        cells: np.ndarray,
        found: np.ndarray,
    ) -> None:
        """Record this step's successful donors for the next step."""
        table = self._cells.setdefault((receiver, donor), {})
        grid_table = self._donor_grid.setdefault(receiver, {})
        flat_indices = np.asarray(flat_indices)
        cells = np.asarray(cells)
        for fi, cell, ok in zip(flat_indices, cells, np.asarray(found)):
            if ok:
                table[int(fi)] = cell.copy()
                grid_table[int(fi)] = donor

    def donor_grid_of(self, receiver: int, flat_index: int) -> int:
        """The grid that donated to this point last step, or -1.

        Trying the remembered donor grid *first* (instead of walking the
        hierarchical search list from the top every step) is the second
        half of the nth-level restart: for slowly-moving grids nearly
        every point keeps its donor grid between steps.
        """
        return self._donor_grid.get(receiver, {}).get(int(flat_index), -1)

    def merge(
        self, other: "RestartCache", base_hits: int = 0, base_misses: int = 0
    ) -> None:
        """Fold another cache's entries into this one.

        Used by execution backends without shared state (each rank
        process mutated a private copy of the cache during a chunk):
        the driver merges every rank's copy back so the next chunk —
        and any repartition that moves point ownership between ranks —
        sees exactly the union a shared cache would hold.  Ownership of
        IGBP flat indices is disjoint across ranks within a chunk, so
        entry merging is conflict-free; ``other``'s entries win where
        keys collide (they are newer).

        ``base_hits``/``base_misses`` are the counter values ``other``
        started from (its fork point), so counters accumulate lookup
        *deltas* and match what a shared cache would have counted.
        """
        for key, table in other._cells.items():
            self._cells.setdefault(key, {}).update(table)
        for receiver, table in other._donor_grid.items():
            self._donor_grid.setdefault(receiver, {}).update(table)
        self.hits += other.hits - base_hits
        self.misses += other.misses - base_misses

    def invalidate(self, receiver: int | None = None) -> None:
        """Drop cached donors (all, or one receiver grid's)."""
        if receiver is None:
            self._cells.clear()
            self._donor_grid.clear()
        else:
            for key in [k for k in self._cells if k[0] == receiver]:
                del self._cells[key]
            self._donor_grid.pop(receiver, None)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
