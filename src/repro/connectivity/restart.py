"""The "nth-level restart" warm start (paper section 2.2).

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

#: One table: sorted unique int64 keys (IGBP flat indices), their donor
#: cells (row ``i`` belongs to ``keys[i]``) and each entry's store stamp.
_Table = tuple[np.ndarray, np.ndarray, np.ndarray]


def _find(table: _Table, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row of each key in the table, and whether the key is there."""
    pos = np.minimum(np.searchsorted(table[0], keys), table[0].size - 1)
    return pos, table[0][pos] == keys


def _upsert(table: _Table | None, new: _Table) -> _Table:
    """``table`` with ``new`` folded in: per key the newest stamp wins,
    and among equal stamps the later entry (``new`` after ``table``,
    then position) — one stable sort, no per-key work."""
    if table is not None:
        new = tuple(np.concatenate(pair) for pair in zip(table, new))
    keys, cells, stamps = new
    order = np.lexsort((stamps, keys))
    keys = keys[order]
    last = np.append(keys[1:] != keys[:-1], True)
    return keys[last], cells[order[last]], stamps[order[last]]


class RestartCache:
    """Per (receiver grid, donor grid) cache of last-known donor cells.

    Keys are (receiver_grid_index, donor_grid_index); each value is one
    sorted-key table from the receiver's IGBP flat indices to donor
    cells.  Every entry carries the stamp of the ``store`` that wrote
    it, which is also the memory of *which grid* donated last: the
    newest entry among a receiver's tables.  The cache degrades
    gracefully: unknown points simply get no hint.
    """

    def __init__(self) -> None:
        self._cells: dict[tuple[int, int], _Table] = {}
        self._clock = 0  # stamp of the latest store
        self.hits = 0
        self.misses = 0

    def hints_with_mask(
        self, receiver: int, donor: int, flat_indices: np.ndarray, ndim: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-point cached donor cells and a known-mask (no filling).

        Unknown rows hold -1; callers that want a seedable array should
        use :meth:`hints`.
        """
        keys = np.asarray(flat_indices)
        out = np.full((len(keys), ndim), -1, dtype=np.int64)
        known = np.zeros(len(keys), dtype=bool)
        table = self._cells.get((receiver, donor))
        if table is not None:
            pos, known = _find(table, keys)
            out[known] = table[1][pos[known]]
        self.hits += int(known.sum())
        self.misses += int((~known).sum())
        return out, known

    def hints(
        self, receiver: int, donor: int, flat_indices: np.ndarray, ndim: int
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
        self, receiver: int, donor: int,
        flat_indices: np.ndarray, cells: np.ndarray, found: np.ndarray,
    ) -> None:
        """Record this step's successful donors for the next step."""
        found = np.asarray(found, dtype=bool)
        keys = np.asarray(flat_indices, dtype=np.int64)[found]
        if not keys.size:
            return
        self._clock += 1
        self._cells[receiver, donor] = _upsert(
            self._cells.get((receiver, donor)),
            (
                keys,
                np.asarray(cells, dtype=np.int64)[found],
                np.full(keys.size, self._clock, dtype=np.int64),
            ),
        )

    def donor_grids_of(
        self, receiver: int, flat_indices: np.ndarray
    ) -> np.ndarray:
        """The grid that donated to each point last step, or -1.

        Trying the remembered donor grid *first* (instead of walking the
        hierarchical search list from the top every step) is the second
        half of the nth-level restart: for slowly-moving grids nearly
        every point keeps its donor grid between steps.
        """
        keys = np.asarray(flat_indices)
        grids = np.full(len(keys), -1, dtype=np.int64)
        newest = np.zeros(len(keys), dtype=np.int64)  # stamps start at 1
        for (rcv, donor), table in self._cells.items():
            if rcv == receiver:
                pos, known = _find(table, keys)
                newer = known & (table[2][pos] > newest)
                grids[newer] = donor
                newest[newer] = table[2][pos[newer]]
        return grids

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
        per key at most one copy holds an entry stored since the fork;
        the newest stamp wins, which keeps it whatever order the copies
        arrive in (the fork-time entries every copy still carries are
        older), and ``other`` wins ties.

        ``base_hits``/``base_misses`` are the counter values ``other``
        started from (its fork point), so counters accumulate lookup
        *deltas* and match what a shared cache would have counted.
        """
        for pair, table in other._cells.items():
            self._cells[pair] = _upsert(self._cells.get(pair), table)
        self._clock = max(self._clock, other._clock)
        self.hits += other.hits - base_hits
        self.misses += other.misses - base_misses

    def invalidate(self, receiver: int | None = None) -> None:
        """Drop cached donors (all, or one receiver grid's)."""
        for pair in [p for p in self._cells if receiver in (None, p[0])]:
            del self._cells[pair]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
