"""Section-5 machinery: Algorithm-3 grouping and Cartesian connectivity.

Quantifies the forward-looking scheme's claims on the X-38 off-body
patch layout:

* Algorithm 3 packs the off-body patches onto nodes with even work
  while keeping most connectivity intra-group (vs a round-robin
  baseline that ignores locality);
* donor lookup between Cartesian patches is closed-form — every
  inter-patch donor in ``layout.weights`` is a stencil-walk search
  avoided;
* the entire off-body system is described by 2*ndim+1 scalars per
  patch (the "seven parameters" argument).
"""

import dataclasses

import pytest

from benchmarks._harness import emit
from repro.cases import x38_offbody_case
from repro.machine import sp2
from repro.offbody.patches import fringe_points
from repro.partition import group_grids, round_robin_grids

NGROUPS = 8


@pytest.fixture(scope="module")
def layout():
    # One level deeper than the scaling bench (Fig. 12b shows several):
    # 136 patches instead of 61, so eight groups hold enough patches
    # each for locality to be measurable.
    case = dataclasses.replace(
        x38_offbody_case(sp2(nodes=3 + NGROUPS), scale=0.05), max_level=3
    )
    return case.make_manager().regenerate(
        [g.bounding_box() for g in case.near_body]
    )


@pytest.mark.benchmark(group="adaptive")
def test_grouping_vs_round_robin(benchmark, layout):
    sizes = list(layout.sizes)
    edges = set(layout.edges)

    def compare():
        return (
            group_grids(sizes, edges, NGROUPS),
            # Baseline: round-robin assignment, no locality.
            round_robin_grids(sizes, NGROUPS),
        )

    algo3, rr = benchmark.pedantic(compare, rounds=1, iterations=1)
    intra = algo3.intra_group_edges(edges)
    emit(
        "adaptive_grouping",
        f"patches {len(sizes)}, edges {len(edges)}, groups {NGROUPS}\n"
        f"Algorithm 3: imbalance {algo3.imbalance():.3f}, "
        f"intra-group edges {intra}, "
        f"cut donor points {algo3.cut_weight(layout.weights)}\n"
        f"round-robin: imbalance {rr.imbalance():.3f}, "
        f"intra-group edges {rr.intra_group_edges(edges)}, "
        f"cut donor points {rr.cut_weight(layout.weights)}",
    )
    assert algo3.imbalance() < 1.5
    # Locality: far more edges stay intra-group than the 1/ngroups
    # share a locality-blind assignment expects.
    expected_random = len(edges) / NGROUPS
    assert intra > 1.5 * expected_random


@pytest.mark.benchmark(group="adaptive")
def test_cartesian_connectivity_avoids_searches(benchmark, layout):
    def connect():
        return sum(len(fringe_points(g)) for g in layout.grids)

    fringe = benchmark.pedantic(connect, rounds=1, iterations=1)
    # Every inter-patch donor is an O(1) CartesianGrid lookup.
    resolved = sum(layout.weights.values())
    stored = sum(g.nparams for g in layout.grids)
    emit(
        "adaptive_connectivity",
        f"fringe points {fringe}, donors resolved {resolved}, "
        f"searches avoided {resolved}\n"
        f"stored parameters {stored} vs "
        f"{layout.total_points} off-body points",
    )
    assert resolved > 0
    # "the vast majority of the interpolation donors will exist in
    # Cartesian grid components": most fringe points resolve in O(1).
    assert resolved > 0.5 * fringe
    # Seven-parameter storage: descriptor size is negligible next to
    # the field data (the paper contrasts 7 scalars per grid with 16
    # stored terms *per point* for curvilinear grids).
    assert stored < 0.05 * layout.total_points
