"""Off-body regeneration and fringe search against from-scratch oracles.

The array-at-once ``generate`` and ``finest_containing`` must return
what the per-patch DFS and the per-candidate overwrite loop kept in
``_reference_patches.py`` return; a manager that reuses last epoch's
per-patch fringe weights must produce, epoch after epoch, exactly the
layout a from-scratch computation gives (dict insertion order
included); the reuse cache must never reach a checkpoint; and the
driver's one-search-per-distinct-fringe-point keys rows by their bytes.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grids.bbox import AABB
from repro.offbody import (
    OffBodyDriver,
    OffBodyManager,
    PatchSystem,
    build_offbody_case,
    generate_scenario,
)
from repro.offbody import patches as patches_mod
from repro.offbody.driver import _distinct_rows
from repro.offbody.patches import fringe_points
from tests.offbody import _reference_patches as ref

DOMAIN = AABB((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))

# Free coordinates and ones on the level-2 lattice lines, where a body
# box face meets a patch face exactly.
coord = st.one_of(
    st.floats(min_value=0.0, max_value=1.75, allow_nan=False),
    st.sampled_from([0.25 * k for k in range(8)]),
)
side = st.one_of(
    st.floats(min_value=0.05, max_value=0.5, allow_nan=False),
    st.sampled_from([0.25, 0.5]),
)
body_box = st.tuples(coord, coord, coord, side).map(
    lambda t: AABB(t[:3], tuple(c + t[3] for c in t[:3]))
)
body_boxes = st.lists(body_box, min_size=0, max_size=3)
margins = st.sampled_from([0.0, 0.05, 0.25])
systems = st.builds(
    PatchSystem,
    st.just(DOMAIN),
    st.sampled_from([0.7, 1.0]),
    points_per_patch=st.integers(min_value=2, max_value=4),
    max_level=st.integers(min_value=0, max_value=3),
    max_brick_cells=st.integers(min_value=1, max_value=3),
)


def twin_system(system):
    return PatchSystem(
        system.domain, system.base_extent,
        points_per_patch=system.points_per_patch,
        max_level=system.max_level,
        max_brick_cells=system.max_brick_cells,
    )


@settings(max_examples=40, deadline=None)
@given(system=systems, boxes=body_boxes, margin=margins)
def test_generate_matches_the_dfs_oracle(system, boxes, margin):
    assert system.generate(boxes, margin) == ref.generate(system, boxes, margin)


@settings(max_examples=40, deadline=None)
@given(system=systems, boxes=body_boxes, data=st.data())
def test_finest_containing_matches_the_overwrite_oracle(system, boxes, data):
    """Patch boxes (eps-inflated, as the weights use them, and the grid
    bounding boxes the driver uses) against fringe nodes, which sit on
    shared faces, lattice corners and random points; any candidate
    subset, the empty one included."""
    patches = system.generate(boxes, 0.05)
    n = len(patches)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pts = np.concatenate([
        fringe_points(system.patch_grid(patches[data.draw(st.integers(0, n - 1))])),
        rng.uniform(-0.1, 2.1, (40, 3)),
        np.stack(np.meshgrid(*[np.linspace(0, 2, 5)] * 3), axis=-1).reshape(-1, 3),
    ])
    candidates = data.draw(st.sets(st.integers(0, n - 1)))
    eps = 1e-9 * system.base_extent
    for boxes_of in (
        [system.patch_box(p).inflated(eps) for p in patches],
        [system.patch_grid(p).bounding_box() for p in patches],
    ):
        got = patches_mod.finest_containing(pts, patches, boxes_of, candidates)
        want = ref.finest_containing(pts, patches, boxes_of, candidates)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


def debris_boxes(seed, nbodies, epochs):
    """Seeded body boxes drifting (and now and then jumping) through
    the domain, one list per adapt epoch."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.2, 1.4, (nbodies, 3))
    size = rng.uniform(0.1, 0.35, (nbodies, 3))
    vel = rng.uniform(-0.12, 0.12, (nbodies, 3))
    out = []
    for _ in range(epochs):
        out.append([AABB(a, a + s) for a, s in zip(lo, size)])
        jump = rng.random(nbodies) < 0.15
        lo = np.clip(lo + vel + jump[:, None] * rng.uniform(-0.5, 0.5, lo.shape),
                     0.0, 1.6)
    return out


@pytest.mark.parametrize("seed", [3, 11, 21])
def test_manager_epochs_equal_from_scratch_layouts(seed):
    """One manager through a debris sequence: every epoch's patches,
    edges, weights (and their insertion order), created and destroyed
    equal a from-scratch computation; the reuse cache holds at most one
    entry per patch and really is hit."""
    mgr = OffBodyManager(DOMAIN, 0.5, points_per_patch=4, max_level=2, margin=0.05)
    fresh = twin_system(mgr.system)
    previous: set = set()
    reused = 0
    for epoch, boxes in enumerate(debris_boxes(seed, nbodies=3, epochs=8)):
        before = dict(mgr.system._donors)
        layout = mgr.regenerate(boxes)
        patches = ref.generate(fresh, boxes, 0.05)
        edges = fresh.adjacency(patches)
        weights = ref.fringe_weights(fresh, patches, edges)
        assert layout.epoch == epoch
        assert layout.patches == patches
        assert layout.edges == frozenset(edges)
        assert list(layout.weights.items()) == list(weights.items())
        assert layout.created == len(set(patches) - previous)
        assert layout.destroyed == len(previous - set(patches))
        assert len(mgr.system._donors) <= layout.npatches
        reused += len(before.keys() & mgr.system._donors.keys())
        previous = set(patches)
    assert reused > 0


def test_the_reuse_cache_never_reaches_a_pickle():
    """A manager that has cached pickles to the bytes of one that has
    not (so checkpoints keep the bytes they have always had), carries
    only the attributes a system always had, and unpickles with an
    empty cache that refills to the same layouts."""
    seq = debris_boxes(5, nbodies=2, epochs=4)
    mgr = OffBodyManager(DOMAIN, 0.5, points_per_patch=4, margin=0.05)
    for boxes in seq[:2]:
        mgr.regenerate(boxes)
    assert mgr.system._donors
    blank = OffBodyManager(DOMAIN, 0.5, points_per_patch=4, margin=0.05)
    blank._previous, blank._epoch = mgr._previous, mgr._epoch
    assert pickle.dumps(mgr) == pickle.dumps(blank)
    assert list(mgr.system.__getstate__()) == [
        "domain", "base_extent", "points_per_patch", "max_level",
        "max_brick_cells", "ncells0",
    ]
    copy = pickle.loads(pickle.dumps(mgr))
    assert copy.system._donors == {}
    for boxes in seq[2:]:
        a, b = mgr.regenerate(boxes), copy.regenerate(boxes)
        assert (a.epoch, a.patches, a.edges, a.created, a.destroyed) == (
            b.epoch, b.patches, b.edges, b.created, b.destroyed
        )
        assert list(a.weights.items()) == list(b.weights.items())


def _debris_case():
    payload = generate_scenario("debris", seed=5, nbodies=3)
    payload["run"].update(adapt_interval=2)
    return build_offbody_case(payload, nsteps=4, nodes=6)


def test_checkpoints_keep_their_bytes_and_resume_mid_epoch(monkeypatch):
    """Checkpoints (every 3 steps: step 3 falls inside the epoch that
    starts at step 2) are byte-identical to those of a run whose patch
    system never holds a cache — the object a checkpoint held before the
    cache existed — and the mid-epoch one resumes to the uninterrupted
    physics."""
    case = _debris_case()
    full = OffBodyDriver(case).run()
    driver = OffBodyDriver(case, checkpoint_every=3)
    assert driver.run().physics_signature() == full.physics_signature()
    ckpt = driver._last_ckpt
    assert ckpt.step == 3

    original = PatchSystem.fringe_weights

    def uncached(self, *args):
        self._donors = {}
        try:
            return original(self, *args)
        finally:
            del self._donors

    monkeypatch.setattr(PatchSystem, "fringe_weights", uncached)
    plain = OffBodyDriver(case, checkpoint_every=3)
    plain.run()
    assert plain._last_ckpt.to_bytes() == ckpt.to_bytes()
    monkeypatch.undo()

    resumed = OffBodyDriver(case).resume(ckpt)
    assert resumed.physics_signature() == full.physics_signature()
    assert resumed.elapsed == full.elapsed


def test_distinct_rows_key_by_bytes_in_first_occurrence_order():
    pts = np.array([
        [1.0, 2.0], [0.0, 1.0], [1.0, 2.0], [-0.0, 1.0], [0.0, 1.0], [3.0, 3.0],
    ])
    first, twin = _distinct_rows(pts)
    # -0.0 and 0.0 compare equal but are different keys.
    assert first.tolist() == [0, 1, 3, 5]
    assert twin.tolist() == [0, 1, 0, 2, 1, 3]
    assert pts[first][twin].tobytes() == pts.tobytes()
    rng = np.random.default_rng(0)
    pts = rng.integers(0, 4, (200, 3)).astype(float)
    first, twin = _distinct_rows(pts)
    assert np.all(np.diff(first) > 0)
    assert pts[first][twin].tobytes() == pts.tobytes()
    assert len(first) == len({row.tobytes() for row in pts})
