"""Off-body grid manager: regenerate the patch layout each adapt epoch.

The manager owns a :class:`repro.offbody.patches.PatchSystem` and, at
every adapt epoch, rebuilds the leaf set around the current near-body
bounding boxes.  The result — an :class:`OffBodyLayout` — carries
everything the driver and Algorithm 3 need: patch grids, sizes,
connectivity edges, inter-patch donor weights (reused from the previous
epoch for a patch with the same neighbours), and churn statistics
(created/destroyed) versus the previous layout.  The patch-fringe donor
search against near-body grids lives in :mod:`repro.offbody.driver`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.grids.bbox import AABB
from repro.grids.cartesian import CartesianGrid
from repro.offbody.patches import Patch, PatchSystem


@dataclass(frozen=True)
class OffBodyLayout:
    """One adapt epoch's patch population (immutable snapshot)."""

    epoch: int
    patches: tuple[Patch, ...]
    grids: tuple[CartesianGrid, ...]
    sizes: tuple[int, ...]
    #: Undirected adjacency edges between patches, (i, j) with i < j.
    edges: frozenset[tuple[int, int]]
    #: Inter-patch donor volumes, (receiver, donor) -> fringe points.
    weights: dict[tuple[int, int], int] = field(compare=False)
    created: int = 0
    destroyed: int = 0

    @property
    def npatches(self) -> int:
        return len(self.patches)

    @property
    def total_points(self) -> int:
        return sum(self.sizes)

    def level_counts(self) -> dict[int, int]:
        return dict(Counter(p.level for p in self.patches))


class OffBodyManager:
    """Regenerates the patch layout as bodies move.

    Deterministic: the layout is a pure function of the body boxes, so
    every backend (and every rank under private-state backends) derives
    the identical population from the same world time.
    """

    def __init__(
        self,
        domain: AABB,
        base_extent: float,
        points_per_patch: int = 5,
        max_level: int = 2,
        margin: float = 0.0,
        max_brick_cells: int = 3,
    ) -> None:
        self.system = PatchSystem(
            domain, base_extent,
            points_per_patch=points_per_patch,
            max_level=max_level,
            max_brick_cells=max_brick_cells,
        )
        self.margin = float(margin)
        self._previous: tuple[Patch, ...] = ()
        self._epoch = 0

    def regenerate(self, body_boxes: list[AABB]) -> OffBodyLayout:
        """Build the layout for the current body positions."""
        system = self.system
        patches = system.generate(body_boxes, self.margin)
        grids = tuple(system.patch_grid(p) for p in patches)
        edges = system.adjacency(patches)
        weights = system.fringe_weights(patches, edges)
        old, new = set(self._previous), set(patches)
        layout = OffBodyLayout(
            epoch=self._epoch,
            patches=patches,
            grids=grids,
            sizes=tuple(g.npoints for g in grids),
            edges=frozenset(edges),
            weights=weights,
            created=len(new - old),
            destroyed=len(old - new),
        )
        self._previous = patches
        self._epoch += 1
        return layout
