"""Case configuration for the OVERFLOW-D1 drivers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.grids.structured import CurvilinearGrid
from repro.machine.spec import MachineSpec
from repro.motion.prescribed import PrescribedMotion
from repro.solver.workmodel import DEFAULT_WORK_MODEL, WorkModel


@dataclass
class CaseConfig:
    """Everything needed to run one moving-body overset case.

    Parameters mirror the paper's experimental knobs:

    * ``f0`` — the dynamic load-balance factor of Algorithm 2
      (``math.inf`` keeps the static partition, the paper's default);
    * ``lb_check_interval`` — timesteps between Algorithm-2 checks;
    * ``search_lists`` — the user-provided hierarchical donor-grid
      lists ("the grids are listed in hierarchical manner", section 2.2);
    * ``fringe_layers`` — overset overlap depth in cells.
    """

    name: str
    grids: list[CurvilinearGrid]
    machine: MachineSpec
    search_lists: dict[int, list[int]]
    motions: dict[int, PrescribedMotion] = field(default_factory=dict)
    nsteps: int = 10
    dt: float = 0.01
    f0: float = math.inf
    lb_check_interval: int = 5
    fringe_layers: int = 1
    use_restart: bool = True
    #: Latency hiding (paper section 5): start the sweep on interior
    #: points while halo messages are in flight, then finish the
    #: boundary strip — "effectively overlapping communication with
    #: computation".
    overlap_halo: bool = False
    work: WorkModel = field(default_factory=lambda: DEFAULT_WORK_MODEL)

    def __post_init__(self) -> None:
        n = len(self.grids)
        if n == 0:
            raise ValueError("case needs at least one grid")
        for gi, lst in self.search_lists.items():
            if not (0 <= gi < n):
                raise ValueError(f"search list for unknown grid {gi}")
            for d in lst:
                if not (0 <= d < n):
                    raise ValueError(f"search list entry {d} out of range")
                if d == gi:
                    raise ValueError(f"grid {gi} cannot donate to itself")
                if lst.count(d) > 1:
                    raise ValueError(
                        f"search list for grid {gi} repeats donor {d}"
                    )
        for gi in self.motions:
            if not (0 <= gi < n):
                raise ValueError(f"motion for unknown grid {gi}")
        if self.nsteps < 1:
            raise ValueError("nsteps must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not (self.f0 > 0):
            raise ValueError(f"f0 must be positive, got {self.f0}")

    @property
    def total_gridpoints(self) -> int:
        return sum(g.npoints for g in self.grids)

    @property
    def ndim(self) -> int:
        return self.grids[0].ndim
