"""The descending delta wing case (paper section 4.2).

Four grids, composite ~1 million points at ``scale=1.0`` with an
IGBPs/gridpoints ratio of ~33e-3.  Three curvilinear grids make up the
delta wing and pipe jet (here: the tapered swept wing, a jet-region
box grid under it, and the jet pipe); the fourth is a Cartesian
background.  The three curvilinear grids descend together at the slow
rate M = 0.064.  Viscous terms active on all grids, no turbulence
models — exactly the paper's setup.
"""

from __future__ import annotations

import math

from repro.core.config import CaseConfig
from repro.grids.generators import (
    cartesian_background,
    extruded_wing_grid,
    fin_grid,
    pipe_grid,
    sizer,
)
from repro.grids.structured import CurvilinearGrid
from repro.machine.spec import MachineSpec, sp2
from repro.motion.prescribed import SteadyDescent

#: Wing, jet-region and pipe grids interpolate from each other and the
#: background; the background from the curvilinear grids.
DELTAWING_SEARCH_LISTS = {
    0: [3, 1],
    1: [0, 3, 2],
    2: [1, 3],
    3: [0, 1, 2],
}


def deltawing_grids(scale: float = 1.0) -> list[CurvilinearGrid]:
    """Four grids, ~1M composite points at ``scale=1.0``."""
    at_least = sizer(scale, 3)

    # The background carries about half the composite points (as in the
    # paper's Fig. 6, where a large Cartesian grid surrounds the wing
    # system): the grids that *serve* most donor searches then also
    # hold a matching share of processors under Algorithm 1.
    wing = extruded_wing_grid(
        "delta-wing",
        ni=at_least(141, 17),
        nj=at_least(45, 7),
        nk=at_least(49, 7),
        span=1.2,
        root_chord=1.0,
        taper=0.15,
        sweep=0.9,
        radius=0.6,
        viscous=True,
        symmetry_root=True,  # half-span model: root plane is symmetry
    )
    jet_region = fin_grid(
        "jet-region",
        ni=at_least(41, 9),
        nj=at_least(29, 7),
        nk=at_least(29, 7),
        root=(0.4, -0.45, 0.1),
        span=0.5,
        chord=0.6,
        thickness=0.05,
        direction=(0.0, 1.0, 0.0),
        viscous=True,
    )
    pipe = pipe_grid(
        "jet-pipe",
        ni=at_least(45, 9),
        nj=at_least(37, 7),
        nk=at_least(57, 9),
        radius=0.12,
        length=0.8,
        origin=(0.55, -0.02, 0.35),
        viscous=True,
    )
    # Tight background (~1 chord margin around the wing system): the
    # near-body region then spans several background subdomains, so
    # donor-search service spreads with the processor count.
    bg = cartesian_background(
        "background",
        (-1.0, -2.2, -0.6),
        (3.2, 1.0, 1.9),
        (
            at_least(101, 9),
            at_least(79, 7),
            at_least(79, 7),
        ),
        viscous=True,
    )
    return [wing, jet_region, pipe, bg]


def deltawing_fringe_layers(scale: float = 1.0) -> int:
    """Fringe depth holding the IGBP ratio near 33e-3 across scales."""
    return max(1, int(round(2 * scale ** (1.0 / 3.0))))


def deltawing_case(
    machine: MachineSpec | None = None,
    scale: float = 1.0,
    nsteps: int = 10,
    f0: float = math.inf,
) -> CaseConfig:
    """Assemble the descending-delta-wing case."""
    if machine is None:
        machine = sp2(nodes=12)
    grids = deltawing_grids(scale)
    descent = SteadyDescent(velocity=(0.0, -0.064, 0.0))
    return CaseConfig(
        name="descending delta wing",
        grids=grids,
        machine=machine,
        search_lists=DELTAWING_SEARCH_LISTS,
        motions={0: descent, 1: descent, 2: descent},
        nsteps=nsteps,
        dt=0.05,
        f0=f0,
        fringe_layers=deltawing_fringe_layers(scale),
    )
