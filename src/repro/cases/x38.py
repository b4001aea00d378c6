"""X-38-like configuration for the adaptive Cartesian scheme (section 5).

The paper's Fig. 12 shows the X-38 Crew Return Vehicle: near-body
curvilinear grids around a blunt lifting body, with the off-body domain
automatically partitioned into Cartesian grids refined by proximity.
We model the vehicle as a blunt body of revolution plus two stubby
fins — geometry is incidental; what the adaptive experiments exercise
is the patch refinement, Algorithm-3 grouping and search-free
Cartesian connectivity around a realistic near-body grid cluster.

Two builders share the near-body cluster: :func:`x38_case` runs it
alone under OVERFLOW-D1 (the registered ``x38`` case), and
:func:`x38_offbody_case` couples it to the section-5 off-body patch
lattice under :class:`repro.offbody.OffBodyDriver`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.config import CaseConfig
from repro.grids.bbox import AABB
from repro.grids.generators import body_of_revolution_grid, fin_grid, sizer
from repro.grids.structured import CurvilinearGrid
from repro.machine.spec import MachineSpec, sp

if TYPE_CHECKING:
    from repro.offbody import OffBodyCase

#: Search hierarchy for the near-body cluster: each fin interpolates
#: from the body grid it is embedded in; the body closes its fringe
#: from the fins where they overlap.
X38_SEARCH_LISTS = {0: [1, 2], 1: [0], 2: [0]}


def x38_near_body_grids(scale: float = 1.0) -> list[CurvilinearGrid]:
    """Near-body curvilinear grids for the blunt vehicle."""
    al = sizer(scale, 3)

    body = body_of_revolution_grid(
        "x38-body", ni=al(81, 9), nj=al(49, 9), nk=al(29, 7),
        length=1.0, body_radius=0.18, outer_radius=0.6,
        viscous=True, turbulence=True,
    )
    fins = [
        fin_grid(
            f"x38-fin{k}", ni=al(29, 7), nj=al(17, 7), nk=al(13, 7),
            root=(0.75, 0.16 * sgn, 0.0), span=0.25, chord=0.25,
            thickness=0.03, direction=(0.0, sgn, 0.0), viscous=True,
        )
        for k, sgn in enumerate((1.0, -1.0))
    ]
    return [body] + fins


def x38_case(
    machine: MachineSpec | None = None,
    scale: float = 1.0,
    nsteps: int = 5,
    f0: float = math.inf,
) -> CaseConfig:
    """The near-body X-38 cluster as an OVERFLOW-D1 performance case.

    Near-body grids only: no off-body Cartesian patches and none of
    the section-5 adaptive machinery run here (that is
    :func:`x38_offbody_case`).  This builder wraps the near-body
    curvilinear cluster in a :class:`CaseConfig` so the re-entry
    configuration can run through the standard driver (and the
    ``repro run`` / ``repro trace`` CLI) alongside the section-4
    cases.  The vehicle is rigid and holds attitude — connectivity is
    re-solved every step from fully warm restarts, the cheapest steady
    regime, which makes it a good observability baseline.
    """
    if machine is None:
        machine = sp(nodes=8)
    grids = x38_near_body_grids(scale)
    return CaseConfig(
        name="X-38 near-body cluster",
        grids=grids,
        machine=machine,
        search_lists=X38_SEARCH_LISTS,
        motions={},
        nsteps=nsteps,
        dt=0.01,
        f0=f0,
        fringe_layers=1,
    )


def x38_offbody_case(
    machine: MachineSpec | None = None,
    scale: float = 1.0,
    nsteps: int = 4,
) -> OffBodyCase:
    """The section-5 scheme on the X-38: the near-body cluster coupled
    to adaptive off-body Cartesian patches over the Fig. 12a domain.

    Near-body grids are pinned one per rank, so ``machine`` needs at
    least four nodes (three grids + one Algorithm-3 patch group).
    """
    from repro.offbody import OffBodyCase

    if machine is None:
        machine = sp(nodes=8)
    return OffBodyCase(
        name="X-38 adaptive off-body",
        machine=machine,
        near_body=tuple(x38_near_body_grids(scale)),
        motions={},
        domain=AABB((-2.0, -2.0, -2.0), (4.0, 2.0, 2.0)),
        base_extent=1.0,
        margin=0.1,
        nsteps=nsteps,
        dt=0.01,
    )
