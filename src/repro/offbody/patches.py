"""Adaptive Cartesian patch generation (paper section 5 workload).

The off-body field is tiled by a graded 2^d-tree of small uniform
Cartesian patches: a coarse level-0 lattice seeds the background, and
cells intersecting the (inflated) bounding boxes of near-body grids —
or any other target box, such as :func:`gradient_boxes`' solution-error
regions — are recursively refined to ``max_level``.  A 2:1 grading
pass then splits any leaf adjacent to a leaf two or more levels finer,
so neighbouring patches always differ by at most one level — the
standard nesting rule of forest-of-octrees AMR (cf. PAPERS.md, Brandt &
Burstedde).

Everything here is exact integer arithmetic on ``(level, ijk)`` cell
indices; physical boxes are derived.  Generation is a pure function of
(domain, knobs, body boxes) — re-running it yields the identical patch
list, which the byte-identity tests across backends rely on.
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
        box = self.patch_box(p)
        dims = tuple(
            (self.points_per_patch - 1) * s + 1 for s in p.shape
        )
        return CartesianGrid(
            p.name,
            box.lo,
            self.spacing(p.level),
            dims,
            level=p.level,
        )

    # ------------------------------------------------------------------
    # integer-lattice helpers

    def _children(self, p: Patch) -> list[Patch]:
        base = tuple(2 * c for c in p.ijk)
        return [
            Patch(p.level + 1, tuple(b + o for b, o in zip(base, off)))
            for off in itertools.product((0, 1), repeat=self.ndim)
        ]

    def _span(self, p: Patch) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Closed index range of ``p`` in finest-level units."""
        f = 1 << (self.max_level - p.level)
        lo = tuple(c * f for c in p.ijk)
        hi = tuple((c + s) * f for c, s in zip(p.ijk, p.shape))
        return lo, hi

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
        leaves: list[Patch] = []
        stack = [
            Patch(0, ijk)
            for ijk in itertools.product(*(range(n) for n in self.ncells0))
        ]
        while stack:
            p = stack.pop()
            if p.level < self.max_level and self._hits(p, targets):
                stack.extend(self._children(p))
            else:
                leaves.append(p)

        # 2:1 grading: split any leaf with a neighbour >= 2 levels finer;
        # splitting can create new violations one level up, so iterate to
        # a fixed point (bounded by max_level passes).
        while True:
            split = self._grading_violations(leaves)
            if not split:
                break
            next_leaves: list[Patch] = []
            for i, p in enumerate(leaves):
                if i in split:
                    next_leaves.extend(self._children(p))
                else:
                    next_leaves.append(p)
            leaves = next_leaves
        return tuple(sorted(self._coalesce(leaves)))

    def _hits(self, p: Patch, targets: list[AABB]) -> bool:
        box = self.patch_box(p)
        return any(box.intersects(t) for t in targets)

    def _coalesce(self, leaves: list[Patch]) -> list[Patch]:
        """Greedy-mesh same-level unit cells into larger bricks.

        Deterministic: cells are visited in sorted order and grown one
        slab at a time along ascending axes, so the brick set is a pure
        function of the leaf set.
        """
        cap = self.max_brick_cells
        if cap <= 1:
            return leaves
        by_level: dict[int, list[tuple[int, ...]]] = {}
        for p in leaves:
            by_level.setdefault(p.level, []).append(p.ijk)
        out: list[Patch] = []
        for level in sorted(by_level):
            cells = sorted(by_level[level])
            free = set(cells)
            for ijk in cells:
                if ijk not in free:
                    continue
                shape = [1] * self.ndim
                for axis in range(self.ndim):
                    while shape[axis] < cap:
                        slab = self._next_slab(ijk, shape, axis)
                        if all(c in free for c in slab):
                            shape[axis] += 1
                        else:
                            break
                for c in itertools.product(
                    *(range(ijk[a], ijk[a] + shape[a]) for a in range(self.ndim))
                ):
                    free.discard(c)
                out.append(Patch(level, ijk, tuple(shape)))
        return out

    def _next_slab(
        self, ijk: tuple[int, ...], shape: list[int], axis: int
    ) -> list[tuple[int, ...]]:
        """Cells in the next one-cell layer growing ``shape`` along ``axis``."""
        ranges: list[Any] = [
            range(ijk[a], ijk[a] + shape[a]) for a in range(self.ndim)
        ]
        ranges[axis] = (ijk[axis] + shape[axis],)
        return list(itertools.product(*ranges))

    def _touch_matrix(self, leaves: list[Patch] | tuple[Patch, ...]) -> np.ndarray:
        """(n, n) bool: leaves share at least a corner (exact integers)."""
        spans = np.array([self._span(p) for p in leaves], dtype=np.int64)
        touch = np.ones((len(leaves), len(leaves)), dtype=bool)
        for lo, hi in spans.transpose(2, 1, 0):  # one (n, n) test per axis
            touch &= (lo[:, None] <= hi) & (lo <= hi[:, None])
        return touch

    def _grading_violations(self, leaves: list[Patch]) -> set[int]:
        levels = np.array([p.level for p in leaves], dtype=np.int64)
        touch = self._touch_matrix(leaves)
        viol = np.any(touch & (levels[None, :] >= levels[:, None] + 2), axis=1)
        return {int(i) for i in np.nonzero(viol)[0]}

    # ------------------------------------------------------------------
    # adjacency / donors

    def adjacency(
        self, leaves: tuple[Patch, ...]
    ) -> set[tuple[int, int]]:
        """Undirected overlap edges between leaves as index pairs (i < j)."""
        if not leaves:
            return set()
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
        """
        if edges is None:
            edges = self.adjacency(leaves)
        neighbors: dict[int, list[int]] = {i: [] for i in range(len(leaves))}
        for a, b in sorted(edges):
            neighbors[a].append(b)
            neighbors[b].append(a)
        eps = 1e-9 * self.base_extent
        boxes = [self.patch_box(p).inflated(eps) for p in leaves]
        weights: dict[tuple[int, int], int] = {}
        for i, p in enumerate(leaves):
            pts = fringe_points(self.patch_grid(p))
            best = finest_containing(pts, leaves, boxes, neighbors[i])
            for j in np.unique(best[best >= 0]):
                weights[(i, int(j))] = int(np.sum(best == j))
        return weights


def fringe_points(grid: CartesianGrid) -> np.ndarray:
    """Boundary node coordinates of a patch grid, shape (n, ndim)."""
    ndim = grid.ndim
    coords = grid.coordinates().reshape(-1, ndim)
    axes = [np.arange(d) for d in grid.dims]
    idx = np.stack(
        np.meshgrid(*axes, indexing="ij"), axis=-1
    ).reshape(-1, ndim)
    last = np.asarray(grid.dims) - 1
    on_face = np.any((idx == 0) | (idx == last), axis=-1)
    return coords[on_face]


def finest_containing(
    pts: np.ndarray,
    patches: Sequence[Patch],
    boxes: Sequence[AABB],
    candidates: Iterable[int],
) -> np.ndarray:
    """Per point, the index of its donor patch among ``candidates``.

    The donor is the *finest* patch whose ``boxes`` entry contains the
    point, the lowest index on level ties; -1 where none does.
    """
    best = np.full(len(pts), -1, dtype=np.int64)
    # Ascending (level, -index): later writes win, so each point ends
    # at the finest containing patch, smallest index on ties.
    for j in sorted(candidates, key=lambda j: (patches[j].level, -j)):
        best[boxes[j].contains(pts)] = j
    return best


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
