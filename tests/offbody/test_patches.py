"""Adaptive patch generation: tiling, grading, coalescing, manager.

The generation invariants pinned here are the ones the driver and the
byte-identity cross-backend tests lean on: the patch set tiles the
lattice disjointly and completely, every patch touching a (inflated)
body box is at the finest level, adjacent patches differ by at most one
level, bricks respect the coalescing cap, and the whole thing is a pure
function of its inputs.
"""

import numpy as np
import pytest

from repro.grids.bbox import AABB
from repro.offbody import OffBodyManager, Patch, PatchSystem, gradient_boxes
from repro.offbody.patches import fringe_points
from tests.offbody._reference_patches import span, touches

DOMAIN = AABB((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
BODY = AABB((0.8, 0.8, 0.8), (1.2, 1.2, 1.2))


def make_system(**kw):
    kw.setdefault("points_per_patch", 4)
    kw.setdefault("max_level", 2)
    return PatchSystem(DOMAIN, 1.0, **kw)


def finest_spans(system, patches):
    """(lo, hi) integer spans of each patch in finest-level cell units."""
    return [span(system, p) for p in patches]


def assert_tiles_lattice(system, patches):
    """Patches cover every finest cell exactly once."""
    total = 1
    for n in system.ncells0:
        total *= n * (1 << system.max_level)
    covered = 0
    for lo, hi in finest_spans(system, patches):
        cells = 1
        for a, b in zip(lo, hi):
            cells *= b - a
        covered += cells
    assert covered == total
    # Disjoint interiors: no strict overlap between any two spans.
    spans = finest_spans(system, patches)
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            (alo, ahi), (blo, bhi) = spans[i], spans[j]
            assert not all(
                alo[d] < bhi[d] and blo[d] < ahi[d]
                for d in range(system.ndim)
            ), f"patches {i} and {j} overlap"


class TestGenerate:
    def test_tiles_disjoint_and_complete(self):
        system = make_system()
        patches = system.generate([BODY], margin=0.05)
        assert patches
        assert_tiles_lattice(system, patches)

    def test_bodies_tracked_at_finest_level(self):
        system = make_system()
        margin = 0.05
        patches = system.generate([BODY], margin=margin)
        target = BODY.inflated(margin)
        hit = [
            p for p in patches if system.patch_box(p).intersects(target)
        ]
        assert hit
        assert all(p.level == system.max_level for p in hit)

    def test_two_to_one_nesting(self):
        system = make_system()
        patches = system.generate([BODY], margin=0.05)
        for i, p in enumerate(patches):
            for q in patches[i + 1:]:
                if touches(system, p, q):
                    assert abs(p.level - q.level) <= 1

    def test_brick_cap_respected(self):
        for cap in (1, 2, 3, 4):
            system = make_system(max_brick_cells=cap)
            patches = system.generate([BODY], margin=0.05)
            assert all(max(p.shape) <= cap for p in patches)
            assert_tiles_lattice(system, patches)

    def test_coalescing_shrinks_patch_count_not_coverage(self):
        unit = make_system(max_brick_cells=1)
        brick = make_system(max_brick_cells=3)
        pu = unit.generate([BODY], margin=0.05)
        pb = brick.generate([BODY], margin=0.05)
        assert len(pb) < len(pu)
        # Coalescing must produce a spread of patch sizes — that spread
        # is what lets Algorithm 3's largest-first seeding bite.
        assert len({brick.patch_grid(p).npoints for p in pb}) > 1

    def test_pure_function_of_inputs(self):
        a = make_system().generate([BODY], margin=0.05)
        b = make_system().generate([BODY], margin=0.05)
        assert a == b

    def test_no_bodies_leaves_background_only(self):
        system = make_system()
        patches = system.generate([])
        assert all(p.level == 0 for p in patches)
        assert_tiles_lattice(system, patches)

    def test_patch_grid_spans_patch_box(self):
        system = make_system()
        for p in system.generate([BODY], margin=0.05):
            grid = system.patch_grid(p)
            box = system.patch_box(p)
            assert np.allclose(grid.origin, box.lo)
            far = grid.origin + grid.spacing * (np.asarray(grid.dims) - 1)
            assert np.allclose(far, box.hi)

    def test_validation(self):
        with pytest.raises(ValueError):
            PatchSystem(DOMAIN, 0.0)
        with pytest.raises(ValueError):
            PatchSystem(DOMAIN, 1.0, points_per_patch=1)
        with pytest.raises(ValueError):
            PatchSystem(DOMAIN, 1.0, max_level=-1)
        with pytest.raises(ValueError):
            PatchSystem(DOMAIN, 1.0, max_brick_cells=0)


class TestPatchNames:
    def test_unit_cell_name(self):
        assert Patch(1, (2, 0, 3)).name == "ob1-2.0.3"

    def test_brick_name_carries_shape(self):
        assert Patch(1, (2, 0, 3), (3, 1, 2)).name == "ob1-2.0.3x3.1.2"
        assert Patch(1, (2, 0, 3), (3, 1, 2)).ncells == 6


class TestAdjacencyAndWeights:
    def test_adjacency_is_symmetric_touch(self):
        system = make_system()
        patches = system.generate([BODY], margin=0.05)
        edges = system.adjacency(patches)
        for i, j in edges:
            assert i < j
            assert touches(system, patches[i], patches[j])

    def test_fringe_weights_target_adjacent_patches(self):
        system = make_system()
        patches = system.generate([BODY], margin=0.05)
        edges = system.adjacency(patches)
        weights = system.fringe_weights(patches, edges)
        assert weights
        undirected = edges | {(j, i) for i, j in edges}
        for (recv, donor), w in weights.items():
            assert w > 0
            assert (recv, donor) in undirected
        # A patch can never receive more fringe donors than it has
        # fringe points.
        per_recv: dict = {}
        for (recv, _donor), w in weights.items():
            per_recv[recv] = per_recv.get(recv, 0) + w
        for recv, w in per_recv.items():
            assert w <= len(fringe_points(system.patch_grid(patches[recv])))


class TestGradientBoxes:
    """The solution-error criterion: extra targets for ``generate``."""

    def background(self):
        system = make_system(max_brick_cells=1)
        return system, system.generate([])

    def test_threshold_orders_a_linear_field(self):
        """A linear field has constant slope: every patch flags or none
        does, depending only on the threshold; a constant field never."""
        system, patches = self.background()

        def linear(pts):
            return 2.0 * pts[:, 0]

        low = gradient_boxes(system, patches, linear, threshold=1.0)
        assert low == [system.patch_box(p) for p in patches]
        assert gradient_boxes(system, patches, linear, threshold=10.0) == []
        assert gradient_boxes(
            system, patches, lambda pts: np.ones(len(pts)), threshold=1e-9
        ) == []

    def test_sampling_resolution(self):
        """A feature thinner than the sample spacing is missed at 3
        samples per edge and caught at 9."""
        system, patches = self.background()

        def spike(pts):
            return np.exp(-((pts[:, 0] - 0.27) ** 2) / 1e-2)

        coarse = gradient_boxes(system, patches, spike, 0.5, samples_per_edge=3)
        fine = gradient_boxes(system, patches, spike, 0.5, samples_per_edge=9)
        assert coarse == []
        assert fine and all(b.lo[0] == 0.0 for b in fine)

    def test_threshold_validation(self):
        system, patches = self.background()
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                gradient_boxes(system, patches, lambda p: p[:, 0], bad)

    def test_flagged_boxes_reach_max_level(self):
        system, patches = self.background()

        def front(pts):
            # Sharp feature near x = 1.5, away from BODY.
            return np.tanh(20 * (pts[:, 0] - 1.5))

        boxes = gradient_boxes(system, patches, front, threshold=0.5)
        assert boxes and all(b.lo[0] == 1.0 for b in boxes)
        refined = system.generate([BODY] + boxes, margin=0.05)
        assert_tiles_lattice(system, refined)
        for box in boxes:
            hit = [p for p in refined if system.patch_box(p).intersects(box)]
            assert hit and all(p.level == system.max_level for p in hit)
        assert len(refined) > len(system.generate([BODY], margin=0.05))


class TestManager:
    def test_layout_carries_consistent_sizes(self):
        mgr = OffBodyManager(DOMAIN, 1.0, points_per_patch=4, margin=0.05)
        layout = mgr.regenerate([BODY])
        assert layout.epoch == 0
        assert layout.npatches == len(layout.grids) == len(layout.sizes)
        assert layout.sizes == tuple(g.npoints for g in layout.grids)
        assert layout.total_points == sum(layout.sizes)
        assert sum(layout.level_counts().values()) == layout.npatches

    def test_churn_accounting_as_bodies_move(self):
        mgr = OffBodyManager(DOMAIN, 1.0, points_per_patch=4, margin=0.05)
        first = mgr.regenerate([BODY])
        assert first.created == first.npatches and first.destroyed == 0
        moved = AABB(BODY.lo + 0.5, BODY.hi + 0.5)
        second = mgr.regenerate([moved])
        assert second.epoch == 1
        assert second.created > 0 and second.destroyed > 0
        # Patch population stays a pure function of the boxes: re-running
        # from scratch on the moved box gives the same patch set.
        fresh = OffBodyManager(
            DOMAIN, 1.0, points_per_patch=4, margin=0.05
        ).regenerate([moved])
        assert fresh.patches == second.patches
        assert fresh.edges == second.edges
        assert fresh.weights == second.weights

    def test_static_bodies_mean_zero_churn(self):
        mgr = OffBodyManager(DOMAIN, 1.0, points_per_patch=4, margin=0.05)
        mgr.regenerate([BODY])
        again = mgr.regenerate([BODY])
        assert again.created == 0 and again.destroyed == 0
