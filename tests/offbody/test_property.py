"""Hypothesis battery: off-body generation and grouping invariants.

Randomized body boxes, refinement depths and brick caps must never
break the structural invariants the driver assumes: bodies tracked at
the finest level, 2:1 nesting between touching patches, a disjoint and
complete tiling of the lattice, brick shapes within the cap, and a
layout that is a pure function of its inputs.  On top of the layout,
Algorithm 3's grouping must stay a deterministic total assignment whose
cut/intra edge split partitions the connectivity graph.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.grids.bbox import AABB  # noqa: E402
from repro.offbody import PatchSystem  # noqa: E402
from repro.partition import group_grids, round_robin_grids  # noqa: E402
from tests.offbody._reference_patches import span, touches  # noqa: E402

DOMAIN = AABB((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))

coord = st.floats(min_value=0.1, max_value=1.6, allow_nan=False)
body_box = st.tuples(coord, coord, coord, st.floats(
    min_value=0.05, max_value=0.5, allow_nan=False
)).map(lambda t: AABB(t[:3], tuple(c + t[3] for c in t[:3])))
body_boxes = st.lists(body_box, min_size=1, max_size=3)

systems = st.builds(
    PatchSystem,
    st.just(DOMAIN),
    st.just(1.0),
    points_per_patch=st.integers(min_value=3, max_value=5),
    max_level=st.integers(min_value=1, max_value=2),
    max_brick_cells=st.integers(min_value=1, max_value=3),
)


def finest_cells(system, p):
    n = 1
    for a, b in zip(*span(system, p)):
        n *= b - a
    return n


class TestGenerationInvariants:
    @settings(max_examples=25, deadline=None)
    @given(system=systems, boxes=body_boxes)
    def test_bodies_covered_at_finest_level(self, system, boxes):
        margin = 0.05
        patches = system.generate(boxes, margin=margin)
        for box in boxes:
            target = box.inflated(margin)
            hit = [
                p for p in patches
                if system.patch_box(p).intersects(target)
            ]
            assert hit, "every body box lies inside the lattice"
            assert all(p.level == system.max_level for p in hit)

    @settings(max_examples=25, deadline=None)
    @given(system=systems, boxes=body_boxes)
    def test_two_to_one_nesting(self, system, boxes):
        patches = system.generate(boxes, margin=0.05)
        for i, p in enumerate(patches):
            for q in patches[i + 1:]:
                if touches(system, p, q):
                    assert abs(p.level - q.level) <= 1

    @settings(max_examples=25, deadline=None)
    @given(system=systems, boxes=body_boxes)
    def test_tiling_complete_disjoint_and_capped(self, system, boxes):
        patches = system.generate(boxes, margin=0.05)
        total = 1
        for n in system.ncells0:
            total *= n * (1 << system.max_level)
        assert sum(finest_cells(system, p) for p in patches) == total
        spans = [span(system, p) for p in patches]
        for i in range(len(spans)):
            for j in range(i + 1, len(spans)):
                (alo, ahi), (blo, bhi) = spans[i], spans[j]
                assert not all(
                    alo[d] < bhi[d] and blo[d] < ahi[d] for d in range(3)
                )
        assert all(max(p.shape) <= system.max_brick_cells for p in patches)

    @settings(max_examples=10, deadline=None)
    @given(system=systems, boxes=body_boxes)
    def test_touch_matrix_matches_scalar_oracle(self, system, boxes):
        """The per-axis matrix grading and adjacency read is the scalar
        pairwise test, entry for entry, diagonal included."""
        patches = system.generate(boxes, margin=0.05)
        touch = system._touch_matrix(patches)
        assert touch.dtype == bool and touch.shape == (len(patches),) * 2
        assert touch.tolist() == [
            [touches(system, p, q) for q in patches] for p in patches
        ]
        rows, cols = patches[::2], patches[1::3]
        assert system._touch_matrix(rows, cols).tolist() == [
            [touches(system, p, q) for q in cols] for p in rows
        ]
        lo, hi = system._spans(patches)
        assert [span(system, p) for p in patches] == [
            (tuple(a), tuple(b)) for a, b in zip(lo.tolist(), hi.tolist())
        ]

    @settings(max_examples=15, deadline=None)
    @given(system=systems, boxes=body_boxes)
    def test_pure_function_no_orphan_weights(self, system, boxes):
        patches = system.generate(boxes, margin=0.05)
        again = system.generate(boxes, margin=0.05)
        assert patches == again
        edges = system.adjacency(patches)
        weights = system.fringe_weights(patches, edges)
        undirected = edges | {(j, i) for i, j in edges}
        assert all(pair in undirected for pair in weights)


sizes_st = st.lists(
    st.integers(min_value=1, max_value=500), min_size=1, max_size=12
)
ngroups_st = st.integers(min_value=1, max_value=4)


def draw_connectivity(data, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not pairs:
        return set()
    return set(data.draw(
        st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)
    ))


class TestGroupingInvariants:
    @settings(max_examples=50, deadline=None)
    @given(sizes=sizes_st, ngroups=ngroups_st, data=st.data())
    def test_assignment_total_and_deterministic(self, sizes, ngroups,
                                                data):
        conn = draw_connectivity(data, len(sizes))
        a = group_grids(sizes, conn, ngroups)
        b = group_grids(sizes, conn, ngroups)
        assert a.group_of == b.group_of
        assert all(0 <= g < ngroups for g in a.group_of)
        assert sum(a.group_points) == sum(sizes)

    @settings(max_examples=50, deadline=None)
    @given(sizes=sizes_st, ngroups=ngroups_st, data=st.data())
    def test_cut_and_intra_partition_the_edges(self, sizes, ngroups,
                                               data):
        conn = draw_connectivity(data, len(sizes))
        for r in (group_grids(sizes, conn, ngroups),
                  round_robin_grids(sizes, ngroups)):
            assert r.cut_edges(conn) + r.intra_group_edges(conn) == len(
                conn
            )
            weights = {e: 10 for e in conn}
            assert r.cut_weight(weights) == 10 * r.cut_edges(conn)

    @settings(max_examples=50, deadline=None)
    @given(sizes=sizes_st, ngroups=ngroups_st)
    def test_round_robin_is_balanced_by_count(self, sizes, ngroups):
        r = round_robin_grids(sizes, ngroups)
        counts = [r.group_of.count(g) for g in range(ngroups)]
        assert max(counts) - min(counts) <= 1
