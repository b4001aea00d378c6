"""The paper's shape claims this reproduction does not meet yet.

Each test states one claim as the paper makes it and is marked
``xfail(strict=True)``: it fails today, which is the gap, and it turns
the suite red the day it passes, so the marker comes off in the change
that closes the gap.  The shape benches (``test_adaptive_*.py``,
``test_table*.py``) keep asserting what already holds; this file is the
scoreboard of what does not.
"""

import pytest

from repro.cases import x38_offbody_case
from repro.machine import sp2
from repro.offbody import OffBodyDriver


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
