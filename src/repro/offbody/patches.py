"""Adaptive Cartesian patch generation (paper section 5 workload).

The off-body field is tiled by a graded 2^d-tree of small uniform
Cartesian patches: a coarse level-0 lattice seeds the background, and
cells intersecting the (inflated) bounding boxes of near-body grids —
or any other target box, such as :func:`gradient_boxes`' solution-error
regions — are refined level by level, a whole array of cells at a
time, to ``max_level``.  A 2:1 grading pass then splits any leaf
adjacent to a leaf two or more levels finer, so neighbouring patches
always differ by at most one level — the standard nesting rule of
forest-of-octrees AMR (cf. PAPERS.md, Brandt & Burstedde).  As there,
only what a move invalidated is redone: :meth:`PatchSystem.fringe_weights`
reuses the donors of a patch whose neighbourhood is unchanged.

Everything here is exact integer arithmetic on ``(level, ijk)`` cell
indices; physical boxes are derived.  Generation is a pure function of
(domain, knobs, body boxes), and so are the weights, reuse or not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.grids.bbox import AABB
from repro.grids.cartesian import CartesianGrid


@dataclass(frozen=True, order=True)
class Patch:
    """One brick of the patch tree: level + lattice index + cell shape.

    ``ijk`` is the lattice index of the brick's low corner at ``level``;
    ``shape`` is its extent in level-``level`` cells per axis (all ones
    for a plain tree cell — the default).  Bricks come from coalescing
    same-level cells, so a brick always covers whole cells.
    """

    level: int
    ijk: tuple[int, ...]
    shape: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.shape:
            object.__setattr__(self, "shape", (1,) * len(self.ijk))

    @property
    def ncells(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def name(self) -> str:
        base = f"ob{self.level}-" + ".".join(str(c) for c in self.ijk)
        if any(s > 1 for s in self.shape):
            base += "x" + ".".join(str(s) for s in self.shape)
        return base


class PatchSystem:
    """The off-body patch lattice over a fixed ``domain``.

    Parameters
    ----------
    domain:
        Physical box tiled by the level-0 lattice (the lattice may
        overhang ``domain.hi`` by a partial cell so the whole domain is
        always covered).
    base_extent:
        Edge length of a level-0 cell; level ``l`` cells have edge
        ``base_extent / 2**l``.
    points_per_patch:
        Grid points per direction in each *cell* of a patch grid (>= 2);
        a brick spanning ``s`` cells along an axis has
        ``(points_per_patch - 1) * s + 1`` points there.
    max_level:
        Finest refinement level generated around bodies.
    max_brick_cells:
        Per-axis cap on coalescing same-level cells into bricks; 1
        disables coalescing (every patch is a single tree cell).
    """

    def __init__(
        self,
        domain: AABB,
        base_extent: float,
        points_per_patch: int = 5,
        max_level: int = 2,
        max_brick_cells: int = 3,
    ) -> None:
        if base_extent <= 0:
            raise ValueError(f"base_extent must be positive, got {base_extent}")
        if points_per_patch < 2:
            raise ValueError("points_per_patch must be >= 2")
        if max_level < 0:
            raise ValueError("max_level must be >= 0")
        if max_brick_cells < 1:
            raise ValueError("max_brick_cells must be >= 1")
        self.domain = domain
        self.base_extent = float(base_extent)
        self.points_per_patch = int(points_per_patch)
        self.max_level = int(max_level)
        self.max_brick_cells = int(max_brick_cells)
        self.ncells0 = tuple(
            max(1, int(np.ceil(e / self.base_extent - 1e-12)))
            for e in domain.extent
        )
        #: fringe_weights' per-patch donors from its last call; never pickled.
        self._donors: dict[tuple, list[tuple[int, int]]] = {}

    @property
    def ndim(self) -> int:
        return self.domain.ndim

    # ------------------------------------------------------------------
    # geometry

    def cell_extent(self, level: int) -> float:
        return self.base_extent / (1 << level)

    def spacing(self, level: int) -> float:
        return self.cell_extent(level) / (self.points_per_patch - 1)

    def patch_box(self, p: Patch) -> AABB:
        h = self.cell_extent(p.level)
        lo = self.domain.lo + h * np.asarray(p.ijk, dtype=float)
        return AABB(lo, lo + h * np.asarray(p.shape, dtype=float))

    def patch_grid(self, p: Patch) -> CartesianGrid:
        dims = tuple((self.points_per_patch - 1) * s + 1 for s in p.shape)
        lo = self.patch_box(p).lo
        return CartesianGrid(p.name, lo, self.spacing(p.level), dims, level=p.level)

    # ------------------------------------------------------------------
    # integer-lattice helpers

    def _children(self, p: Patch) -> list[Patch]:
        base = tuple(2 * c for c in p.ijk)
        return [
            Patch(p.level + 1, tuple(b + o for b, o in zip(base, off)))
            for off in itertools.product((0, 1), repeat=self.ndim)
        ]

    def _spans(self, leaves: Sequence[Patch]) -> tuple[np.ndarray, np.ndarray]:
        """Closed index ranges of ``leaves`` in finest-level units: the
        (n, ndim) low and high corners."""
        d = self.ndim
        f = np.array([1 << (self.max_level - p.level) for p in leaves], np.int64)[:, None]
        ijk = np.array([p.ijk for p in leaves], np.int64).reshape(-1, d)
        shape = np.array([p.shape for p in leaves], np.int64).reshape(-1, d)
        return ijk * f, (ijk + shape) * f

    # ------------------------------------------------------------------
    # generation

    def generate(
        self, body_boxes: list[AABB], margin: float = 0.0
    ) -> tuple[Patch, ...]:
        """The graded, coalesced patch set for the current body positions.

        Returns patches sorted by ``(level, ijk, shape)``.  Invariants
        (pinned by the property battery):

        * patches tile the lattice disjointly;
        * any patch intersecting an inflated body box is at
          ``max_level`` (bodies are always tracked at the finest level);
        * adjacent patches differ by at most one level (2:1 nesting);
        * the output is a pure function of the inputs.

        After refinement and 2:1 grading, runs of same-level cells are
        greedily meshed into larger Cartesian bricks (up to
        ``max_brick_cells`` per axis) — the paper's off-body population
        is many *varied-size* small Cartesian grids, and Algorithm 3's
        largest-first seeding needs that size spread to bite.
        """
        targets = [b.inflated(margin) for b in body_boxes]
        tlo = np.array([t.lo for t in targets]).reshape(-1, 1, self.ndim)
        thi = np.array([t.hi for t in targets]).reshape(-1, 1, self.ndim)
        kids = np.array(list(itertools.product((0, 1), repeat=self.ndim)))
        ijk = np.array(list(itertools.product(*map(range, self.ncells0))))
        leaves: list[Patch] = []
        # Level by level over the whole lattice front: a cell is refined
        # when its box (``patch_box``'s arithmetic) meets any target.
        for level in range(self.max_level + 1):
            h = self.cell_extent(level)
            lo = self.domain.lo + h * ijk.astype(float)
            hit = np.any(np.all((lo <= thi) & (tlo <= lo + h * 1.0), axis=2), axis=0)
            hit &= level < self.max_level
            leaves += [Patch(level, tuple(c)) for c in ijk[~hit].tolist()]
            ijk = (2 * ijk[hit][:, None] + kids).reshape(-1, self.ndim)

        # 2:1 grading: split any leaf with a neighbour >= 2 levels finer;
        # splitting can create new violations one level up, so iterate to
        # a fixed point (bounded by max_level passes).
        while split := self._grading_violations(leaves):
            leaves = [
                c for i, p in enumerate(leaves)
                for c in (self._children(p) if i in split else (p,))
            ]
        return tuple(sorted(self._coalesce(leaves)))

    def _coalesce(self, leaves: list[Patch]) -> list[Patch]:
        """Greedy-mesh same-level unit cells into larger bricks.

        Deterministic: cells are visited in sorted order and grown one
        slab at a time along ascending axes, so the brick set is a pure
        function of the leaf set.
        """
        out: list[Patch] = []
        for level in sorted({p.level for p in leaves}):
            cells = sorted(p.ijk for p in leaves if p.level == level)
            free = set(cells)
            for ijk in cells:
                if ijk not in free:
                    continue
                shape = [1] * self.ndim
                for axis in range(self.ndim):
                    while shape[axis] < self.max_brick_cells and all(
                        c in free for c in self._block(ijk, shape, axis)
                    ):
                        shape[axis] += 1
                free.difference_update(self._block(ijk, shape))
                out.append(Patch(level, ijk, tuple(shape)))
        return out

    @staticmethod
    def _block(ijk: tuple, shape: list, axis: int | None = None) -> Iterable[tuple[int, ...]]:
        """The brick's cells, or those of its next layer along ``axis``."""
        ranges: list[Any] = [range(c, c + s) for c, s in zip(ijk, shape)]
        if axis is not None:
            ranges[axis] = (ijk[axis] + shape[axis],)
        return itertools.product(*ranges)

    def _touch_matrix(
        self, leaves: Sequence[Patch], others: Sequence[Patch] | None = None
    ) -> np.ndarray:
        """(n, m) bool: ``leaves`` share at least a corner with ``others``
        (default: with each other), in exact integers."""
        alo, ahi = self._spans(leaves)
        blo, bhi = (alo, ahi) if others is None else self._spans(others)
        touch = np.ones((len(alo), len(blo)), dtype=bool)
        for d in range(self.ndim):  # one (n, m) test per axis
            touch &= (alo[:, d, None] <= bhi[:, d]) & (blo[:, d] <= ahi[:, d, None])
        return touch

    def _grading_violations(self, leaves: list[Patch]) -> set[int]:
        # Only leaves at max_level - 2 or coarser split, next to level >= 2.
        levels = np.array([p.level for p in leaves], dtype=np.int64)
        a = np.nonzero(levels <= self.max_level - 2)[0]
        b = np.nonzero(levels >= 2)[0]
        touch = self._touch_matrix([leaves[i] for i in a], [leaves[j] for j in b])
        viol = np.any(touch & (levels[b] >= levels[a, None] + 2), axis=1)
        return set(a[viol].tolist())

    # ------------------------------------------------------------------
    # adjacency / donors

    def adjacency(self, leaves: Sequence[Patch]) -> set[tuple[int, int]]:
        """Undirected overlap edges between leaves as index pairs (i < j)."""
        touch = self._touch_matrix(leaves)
        a, b = np.nonzero(np.triu(touch, k=1))
        return {(int(i), int(j)) for i, j in zip(a, b)}

    def fringe_weights(
        self,
        leaves: tuple[Patch, ...],
        edges: set[tuple[int, int]] | None = None,
    ) -> dict[tuple[int, int], int]:
        """Inter-patch donor volumes: ``(receiver, donor) -> points``.

        Each patch's grid boundary points are its fringe; the donor for
        a fringe point is the *finest* other patch containing it (ties
        broken toward the lower patch index).  Patches tile the lattice,
        so candidate donors are exactly the adjacent leaves.  Fringe
        points on the outer lattice boundary have no donor and are
        free-stream, not orphans.

        A patch's donors depend only on it and its neighbours in index
        order: one the last call saw with the same neighbours reuses that
        call's list (only the last call's are kept, never pickled).
        """
        if edges is None:
            edges = self.adjacency(leaves)
        neighbors: dict[int, list[int]] = {i: [] for i in range(len(leaves))}
        for a, b in sorted(edges):
            neighbors[a].append(b)
            neighbors[b].append(a)
        boxes = [self.patch_box(p).inflated(1e-9 * self.base_extent) for p in leaves]
        cache: dict[tuple, list[tuple[int, int]]] = {}
        weights: dict[tuple[int, int], int] = {}
        for i, p in enumerate(leaves):
            near = neighbors[i]
            key = (p, tuple(leaves[j] for j in near))
            donors = self._donors.get(key)
            if donors is None:
                pts = fringe_points(self.patch_grid(p))
                best = finest_containing(pts, leaves, boxes, near)
                js, counts = np.unique(best[best >= 0], return_counts=True)
                donors = [(near.index(j), n) for j, n in zip(js.tolist(), counts.tolist())]
            cache[key] = donors
            for k, n in donors:
                weights[(i, near[k])] = n
        self._donors = cache
        return weights

    def __getstate__(self) -> dict[str, Any]:
        return {k: v for k, v in self.__dict__.items() if k != "_donors"}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state, _donors={})


def fringe_points(grid: CartesianGrid) -> np.ndarray:
    """Boundary node coordinates of a patch grid, shape (n, ndim)."""
    on_face = np.zeros(grid.dims, dtype=bool)
    for a in range(grid.ndim):
        on_face[(slice(None),) * a + ([0, -1],)] = True
    return grid.coordinates()[on_face]


def finest_containing(
    pts: np.ndarray, patches: Sequence[Patch], boxes: Sequence[AABB], candidates: Iterable[int]
) -> np.ndarray:
    """Per point, the index of its donor patch among ``candidates``.

    The donor is the *finest* patch whose ``boxes`` entry contains the
    point, the lowest index on level ties; -1 where none does.  One
    comparison against the stacked boxes picks, per point, the last
    containing candidate in ascending ``(level, -index)`` order.
    """
    order = sorted(candidates, key=lambda j: (patches[j].level, -j))
    if not order:
        return np.full(len(pts), -1, dtype=np.int64)
    lo = np.array([boxes[j].lo for j in order])
    hi = np.array([boxes[j].hi for j in order])
    inside = np.all((pts[:, None] >= lo) & (pts[:, None] <= hi), axis=2)
    last = len(order) - 1 - np.argmax(inside[:, ::-1], axis=1)
    return np.where(inside.any(axis=1), np.array(order)[last], -1)


def gradient_boxes(
    system: PatchSystem,
    patches: Sequence[Patch],
    field: Callable[[np.ndarray], np.ndarray],
    threshold: float,
    samples_per_edge: int = 3,
) -> list[AABB]:
    """Boxes of the patches where a sampled field varies strongly.

    The paper's second refinement criterion ("estimates of solution
    error", section 5).  ``field`` maps points (n, ndim) to scalars
    (n,); a patch's error indicator is its sample range divided by its
    longest edge — a gradient-magnitude surrogate that needs no stored
    solution.  Concatenate the result with the body boxes passed to
    :meth:`PatchSystem.generate` (or :meth:`OffBodyManager.regenerate`)
    and the next layout is at ``max_level`` there too.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    out: list[AABB] = []
    for p in patches:
        box = system.patch_box(p)
        axes = [
            np.linspace(box.lo[d], box.hi[d], samples_per_edge)
            for d in range(box.ndim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        vals = np.asarray(
            field(np.stack([m.ravel() for m in mesh], axis=-1)), dtype=float
        )
        if (vals.max() - vals.min()) / float(box.extent.max()) > threshold:
            out.append(box)
    return out
