"""OVERFLOW-D1: the bundled dynamic overset driver.

The paper bundles the parallel OVERFLOW flow solver, the SIXDOF motion
model, the parallel DCF3D connectivity code and the load-balancing
routines into a single code, OVERFLOW-D1, whose unsteady loop executes
three barrier-separated steps per timestep: (1) flow solve, (2) grid
motion, (3) domain connectivity.

Two drivers are provided:

* :class:`OverflowD1` (:mod:`overflow_d1`) — the *performance* driver:
  every rank runs the real distributed connectivity protocol on the
  simulated machine while the flow-solve arithmetic is charged through
  the calibrated work model; this is what regenerates the paper's
  tables and figures.  Its epoch loop (:mod:`runner`) is shared with
  the off-body driver; :func:`build_driver` picks between the two.
* :class:`Overset2D` (:mod:`serial2d`) — the *physics* driver: real
  2-D Navier-Stokes solves on every component grid with real hole
  cutting, donor search and fringe interpolation, for the examples.
"""

from repro.core.config import CaseConfig
from repro.core.overflow_d1 import OverflowD1
from repro.core.runner import (
    EpochResult,
    RunResult,
    StepStats,
    build_driver,
    resume_run,
    run_summary,
)
from repro.core.overset import OversetDriver, Overset3D
from repro.core.serial2d import Overset2D
from repro.core.performance import (
    PerformanceTable,
    serial_time_per_step,
    speedup_table,
)

__all__ = [
    "CaseConfig",
    "OverflowD1",
    "EpochResult",
    "RunResult",
    "StepStats",
    "build_driver",
    "resume_run",
    "run_summary",
    "Overset2D",
    "Overset3D",
    "OversetDriver",
    "PerformanceTable",
    "serial_time_per_step",
    "speedup_table",
]
