"""The 2-D oscillating airfoil case (paper section 4.1).

NACA 0012, M = 0.8, Re = 1e6, alpha(t) = 5 deg * sin(pi/2 * t).  Three
grids with roughly equal point counts, 64K composite total at
``scale=1.0``:

* a near-field O-grid defining the airfoil, extending about one chord;
* an intermediate circular (annulus) grid to about three chords;
* a square Cartesian background grid to seven chords.

Only the airfoil grid moves.  The IGBPs/gridpoints ratio is ~44e-3; in
this reproduction the overset fringe depth supplies the ratio (see
DESIGN.md — NASA's original grids realise it through overlap-region
blanking we do not model), and the fringe depth scales with resolution
so the scale-up study (Table 2) keeps the ratio constant, exactly as
the paper reports.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import CaseConfig
from repro.grids.generators import (
    airfoil_ogrid,
    annulus_grid,
    cartesian_background,
    sizer,
)
from repro.grids.structured import CurvilinearGrid
from repro.machine.spec import MachineSpec, sp2
from repro.motion.prescribed import PitchOscillation

#: Search hierarchy: near-field interpolates from the intermediate grid
#: then the background; the intermediate from both neighbours; the
#: background from the intermediate then the near grid.
AIRFOIL_SEARCH_LISTS = {0: [1, 2], 1: [0, 2], 2: [1, 0]}


def airfoil_grids(scale: float = 1.0) -> list[CurvilinearGrid]:
    """The three component grids; ``scale=1.0`` gives ~64K points."""
    at_least = sizer(scale, 2)

    near = airfoil_ogrid(
        "near-field",
        ni=at_least(241, 21),
        nj=at_least(89, 9),
        radius=1.0,
        center=(0.5, 0.0),
        viscous=True,
    )
    mid = annulus_grid(
        "intermediate",
        ni=at_least(241, 21),
        nj=at_least(89, 9),
        r_inner=0.85,
        r_outer=3.0,
        center=(0.5, 0.0),
    )
    bg = cartesian_background(
        "background",
        (-6.5, -7.0),
        (7.5, 7.0),
        (at_least(146, 13), at_least(146, 13)),
    )
    return [near, mid, bg]


def airfoil_fringe_layers(scale: float = 1.0) -> int:
    """Fringe depth holding IGBPs/gridpoints at ~44e-3 across scales."""
    return max(1, int(round(4 * math.sqrt(scale))))


def airfoil_case(
    machine: MachineSpec | None = None,
    scale: float = 1.0,
    nsteps: int = 10,
    f0: float = math.inf,
    grids: list[CurvilinearGrid] | None = None,
    fringe_layers: int | None = None,
) -> CaseConfig:
    """Assemble the oscillating-airfoil case.

    The timestep is chosen so donor cells move well under one receiving
    cell per step (the regime that makes nth-level restart effective,
    section 2.2).
    """
    if machine is None:
        machine = sp2(nodes=12)
    if grids is None:
        grids = airfoil_grids(scale)
    motion = PitchOscillation(center=(0.25, 0.0))
    # Max wall speed ~ alpha0 * omega * lever (~7 chords at the bg edge);
    # keep per-step motion below ~half the finest fringe cell.
    dt = 0.01 / max(0.1, math.sqrt(scale))
    return CaseConfig(
        name="2D oscillating airfoil",
        grids=grids,
        machine=machine,
        search_lists=AIRFOIL_SEARCH_LISTS,
        motions={0: motion},
        nsteps=nsteps,
        dt=dt,
        f0=f0,
        fringe_layers=(
            airfoil_fringe_layers(scale)
            if fringe_layers is None
            else fringe_layers
        ),
    )
