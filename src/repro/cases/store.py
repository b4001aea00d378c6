"""The finned-store separation case (paper section 4.3).

Mach 1.6 store separation from a wing/pylon: 16 grids, composite ~0.81
million points at ``scale=1.0`` with an IGBPs/gridpoints ratio of
~66e-3 — 1.5-2x the other cases, which is why this case is the paper's
test bed for the dynamic load balance scheme.

Grid inventory (matching the paper's counts):

* ten curvilinear grids define the finned store: main body, nose cap,
  boat-tail, four fins, and three fin-root collar grids — all viscous
  with the Baldwin-Lomax model active;
* three curvilinear grids define the wing/pylon: wing, pylon, and a
  wing-tip cap — viscous + Baldwin-Lomax;
* three Cartesian background grids around the store, all inviscid.

The store's ten grids move along a prescribed separation trajectory
("the motion of the store is specified in this case", with free motion
available at "negligible change in the parallel performance").
"""

from __future__ import annotations

import math

from repro.core.config import CaseConfig
from repro.grids.generators import (
    body_of_revolution_grid,
    cartesian_background,
    extruded_wing_grid,
    fin_grid,
    sizer,
)
from repro.grids.structured import CurvilinearGrid
from repro.machine.spec import MachineSpec, sp2
import numpy as np

from repro.motion.prescribed import SixDofMotion, StoreSeparation
from repro.motion.rigid import RigidBodyState
from repro.motion.sixdof import Loads, SixDof

N_STORE_GRIDS = 10  # grids 0..9 move with the store

#: Store grids search each other, then the backgrounds; wing/pylon
#: grids search each other and the backgrounds; backgrounds search the
#: curvilinear grids then each other (coarser levels).
def _search_lists() -> dict[int, list[int]]:
    store = list(range(10))
    wing = [10, 11, 12]
    bgs = [13, 14, 15]
    lists: dict[int, list[int]] = {}
    # Store components: the main body first, then the innermost bg.
    for g in store:
        lists[g] = [x for x in (0, 1, 2) if x != g] + bgs
    # Fins also see the body collars.
    for g in (3, 4, 5, 6):
        lists[g] = [0] + [7, 8, 9] + bgs
    for g in (7, 8, 9):
        lists[g] = [0] + bgs
    lists[10] = [11, 12] + bgs
    lists[11] = [10] + bgs
    lists[12] = [10] + bgs
    lists[13] = store[:3] + wing + [14, 15]
    lists[14] = [13, 15] + store[:1]
    lists[15] = [14, 13]
    return lists


STORE_SEARCH_LISTS = _search_lists()


def store_grids(scale: float = 1.0) -> list[CurvilinearGrid]:
    """Sixteen grids, ~0.81M composite points at ``scale=1.0``."""
    al = sizer(scale, 3)
    L = 1.0          # store length
    R = 0.07         # store radius
    grids: list[CurvilinearGrid] = []

    # --- store (10 grids, indices 0-9), built around the origin ------
    grids.append(
        body_of_revolution_grid(
            "store-body", ni=al(101, 9), nj=al(49, 9), nk=al(33, 7),
            length=L, body_radius=R, outer_radius=0.45,
            viscous=True, turbulence=True,
        )
    )
    grids.append(
        body_of_revolution_grid(
            "store-nose", ni=al(41, 7), nj=al(41, 7), nk=al(25, 7),
            length=0.25 * L, body_radius=0.8 * R, outer_radius=0.3,
            axis_origin=(-0.08, 0.0, 0.0),
            viscous=True, turbulence=True,
        )
    )
    grids.append(
        body_of_revolution_grid(
            "store-tail", ni=al(41, 7), nj=al(41, 7), nk=al(25, 7),
            length=0.3 * L, body_radius=0.9 * R, outer_radius=0.3,
            axis_origin=(0.85, 0.0, 0.0),
            viscous=True, turbulence=True,
        )
    )
    fin_dirs = [(0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    for k, d in enumerate(fin_dirs):
        root = (0.78, 0.06 * d[1], 0.06 * d[2])
        grids.append(
            fin_grid(
                f"store-fin{k}", ni=al(33, 7), nj=al(21, 7), nk=al(17, 7),
                root=root, span=0.18, chord=0.16, thickness=0.015,
                direction=d, viscous=True,
            )
        )
    for k in range(3):
        grids.append(
            fin_grid(
                f"store-collar{k}", ni=al(25, 7), nj=al(17, 7), nk=al(13, 7),
                root=(0.70 + 0.05 * k, 0.05, 0.0), span=0.08,
                chord=0.12, thickness=0.02,
                direction=(0.0, 1.0, 0.0), viscous=True,
            )
        )

    # --- wing / pylon (indices 10-12), above the store ---------------
    grids.append(
        extruded_wing_grid(
            "wing", ni=al(121, 13), nj=al(33, 7), nk=al(41, 7),
            span=2.5, root_chord=1.8, taper=0.5, sweep=0.7, radius=0.9,
            viscous=True, turbulence=True,
        )
    )
    # Shift the wing above the store (+y) in its reference pose.
    wing = grids[-1]
    grids[-1] = wing.with_coordinates(wing.xyz + [0.0, 0.8, 0.2])
    grids.append(
        fin_grid(
            "pylon", ni=al(41, 7), nj=al(25, 7), nk=al(21, 7),
            root=(0.3, 0.25, 0.3), span=0.5, chord=0.5, thickness=0.06,
            direction=(0.0, 1.0, 0.0), viscous=True,
        )
    )
    grids.append(
        fin_grid(
            "wing-tip", ni=al(33, 7), nj=al(21, 7), nk=al(17, 7),
            root=(1.0, 0.8, 2.6), span=0.3, chord=0.6, thickness=0.08,
            direction=(0.0, 0.0, 1.0), viscous=True,
        )
    )

    # --- Cartesian backgrounds (indices 13-15), inviscid --------------
    grids.append(
        cartesian_background(
            "bg-fine", (-0.6, -1.2, -0.8), (1.8, 0.6, 0.8),
            (al(61, 9), al(45, 7), al(41, 7)),
        )
    )
    grids.append(
        cartesian_background(
            "bg-mid", (-1.5, -3.0, -1.8), (3.0, 1.5, 3.2),
            (al(49, 9), al(41, 7), al(41, 7)),
        )
    )
    grids.append(
        cartesian_background(
            "bg-coarse", (-4.0, -6.0, -4.0), (6.0, 3.0, 6.0),
            (al(41, 7), al(33, 7), al(33, 7)),
        )
    )
    assert len(grids) == 16
    return grids


def store_fringe_layers(scale: float = 1.0) -> int:
    """Fringe depth holding the IGBP ratio near 66e-3 across scales."""
    return max(1, int(round(2 * scale ** (1.0 / 3.0))))


def free_store_motion() -> SixDofMotion:
    """Store motion computed from loads by the 6-DOF model instead of
    prescribed — the paper's "the free motion can be computed with
    negligible change in the parallel performance".  Loads: gravity,
    an initial ejector impulse, and a simple pitch-down aerodynamic
    moment that saturates (qualitatively the prescribed trajectory)."""
    body = SixDof(
        mass=1.0,
        inertia=np.array([0.02, 0.1, 0.1]),
        state=RigidBodyState(velocity=np.array([0.0, -0.08, 0.0])),
    )
    return SixDofMotion(body, _free_store_loads, internal_dt=0.02)


def _free_store_loads(state: RigidBodyState, t: float) -> Loads:
    """The free store's loads; module-level so the case pickles into a
    checkpoint and into a rank program shipped to a node."""
    force = np.array([0.0, -0.04, 0.0])  # gravity (nondimensional)
    # Aerodynamic nose-down moment, fading as the store pitches.
    moment = np.array([0.0, 0.0, 0.003 * max(0.0, 1.0 - 2.0 * abs(
        2.0 * np.arcsin(np.clip(state.attitude.q[3], -1.0, 1.0))
    ))])
    return Loads(force=force, moment=moment)


def store_case(
    machine: MachineSpec | None = None,
    scale: float = 1.0,
    nsteps: int = 10,
    f0: float = math.inf,
    free_motion: bool = False,
) -> CaseConfig:
    """Assemble the wing/pylon/finned-store separation case.

    ``free_motion`` swaps the prescribed separation trajectory for the
    6-DOF-integrated one (paper section 4.3).
    """
    if machine is None:
        machine = sp2(nodes=16)
    grids = store_grids(scale)
    motion = (
        free_store_motion()
        if free_motion
        else StoreSeparation(
            eject_velocity=0.08, gravity=0.04, pitch_rate=0.015,
            center=(0.5, 0.0, 0.0),
        )
    )
    return CaseConfig(
        name="wing/pylon/finned-store separation",
        grids=grids,
        machine=machine,
        search_lists=STORE_SEARCH_LISTS,
        motions={gi: motion for gi in range(N_STORE_GRIDS)},
        nsteps=nsteps,
        dt=0.02,
        f0=f0,
        fringe_layers=store_fringe_layers(scale),
    )
