"""The paper's shape claims this reproduction does not meet yet.

Each test states one claim as the paper makes it and is marked
``xfail(strict=True)``: it fails today, which is the gap, and it turns
the suite red the day it passes, so the marker comes off in the change
that closes the gap.  The shape benches (``test_adaptive_*.py``,
``test_table*.py``) keep asserting what already holds; this file is the
scoreboard of what does not.
"""

import math

import pytest

from benchmarks import test_table1_airfoil as table1
from benchmarks import test_table3_deltawing as table3
from benchmarks import test_table4_store_static as table4
from benchmarks import test_table5_dynamic_lb as table5
from benchmarks import test_table6_ymp_units as table6
from benchmarks._harness import run_sweep, table_text
from repro.cases import (
    airfoil_case,
    deltawing_case,
    store_case,
    x38_offbody_case,
)
from repro.core.overflow_d1 import PHASE_DCF
from repro.machine import sp2
from repro.offbody import OffBodyDriver


def sp2_column(case_fn, table, column: str) -> dict[int, float]:
    """One SP2 table column by node count over a table bench's own
    sweep (its ``NODE_COUNTS``, ``SCALE`` and ``NSTEPS``)."""
    runs, total = run_sweep(
        case_fn, sp2, table.NODE_COUNTS, table.SCALE, table.NSTEPS
    )
    rows = table_text(runs, total)[0].rows
    return {r["nodes"]: r[column] for r in rows}


def pct_dcf3d(groups: int) -> float:
    """``%DCF3D`` of the section-5 X-38 off-body run over ``groups``
    patch groups: the 1- and 8-group rows of
    ``test_adaptive_scaling.py`` (three near-body ranks + one rank per
    group, scale 0.05, 4 steps)."""
    case = x38_offbody_case(sp2(nodes=3 + groups), scale=0.05, nsteps=4)
    return OffBodyDriver(case).run().pct_dcf3d


@pytest.mark.xfail(
    strict=True,
    reason="%DCF3D rises 52.7% -> 83.6% over 1 -> 8 groups: the near-body "
    "ranks serve the patch-fringe donor searches cold every step",
)
def test_section5_connectivity_share_does_not_grow_with_groups():
    # "the approach should scale well": the connectivity share of the
    # step must not grow as patch groups are added.
    assert pct_dcf3d(8) <= pct_dcf3d(1)


@pytest.mark.xfail(
    strict=True,
    reason="airfoil SP2 Mflops/node 24.5 at 6 nodes -> 24.8 at 24: the "
    "modeled flow rate does not fall with subdomain size",
)
def test_table1_mflops_per_node_falls_with_nodes():
    # Table 1: SP2 Mflops/node 23.1 at 6 nodes -> 11.3 at 24.
    mf = sp2_column(airfoil_case, table1, "mflops/node")
    assert mf[24] < mf[6]


@pytest.mark.xfail(
    strict=True,
    reason="store SP2 Mflops/node peaks at 42 nodes (16.1); the paper's "
    "peaks at 28",
)
def test_table4_mflops_per_node_peaks_by_35_nodes():
    # Table 4: Mflops/node improves from 16 nodes to a peak at 28
    # ("a better degree of static load balance") and then falls.
    mf = sp2_column(store_case, table4, "mflops/node")
    assert max(mf, key=mf.get) <= 35


@pytest.mark.xfail(
    strict=True,
    reason="delta-wing SP2 %DCF3D 13.0% at 7 nodes -> 44.7% at 55; "
    "see EXPERIMENTS.md, Table 3",
)
def test_table3_dcf3d_share_at_most_doubles():
    # Table 3: %DCF3D grows from 9% at 7 nodes to 15% at 55 (SP2).
    pct = sp2_column(deltawing_case, table3, "%dcf3d")
    assert pct[55] <= 2 * pct[7]


@pytest.mark.xfail(
    strict=True,
    reason="store at 52 nodes: dynamic LB (f0 = 5) DCF3D s/step is 9.4% "
    "above static",
)
def test_table5_dynamic_lb_beats_static_dcf3d_at_52_nodes():
    # Table 5: at 52 nodes the dynamic scheme's DCF3D speedup is 4.10
    # against static's 3.28, so its DCF3D time per step is lower.
    static = table5.run_one(52, math.inf)
    dynamic = table5.run_one(52, 5.0)
    assert dynamic.phase_elapsed(PHASE_DCF) < static.phase_elapsed(PHASE_DCF)


@pytest.mark.xfail(
    strict=True,
    reason="store SP2 YMP units per node are 0.25-0.34; the paper's "
    "are 0.52-0.71",
)
def test_table6_sp2_node_is_half_a_ymp():
    # Table 6: one SP2 node delivers 0.52-0.71 of a YMP processor at
    # every partition from 18 to 61 nodes.
    _, rows = table6.ymp_units()
    assert all(r["SP2/node"] >= 0.52 for r in rows)
