"""Adaptive Cartesian off-body grids — the paper's section-5 workload.

The subsystem the paper's Algorithm 3 was designed for: many small
auto-generated Cartesian patch grids tracking moving near-body grids,
bin-packed into connectivity-local groups, regenerated every adapt
epoch.

* :mod:`patches` — graded 2^d-tree patch generation (2:1 nesting) and
  the solution-error refinement criterion;
* :mod:`manager` — per-epoch layout regeneration + donor weights;
* :mod:`driver` — the :class:`OffBodyDriver` timestep loop on the
  pluggable execution backends, with ``offbody:regen`` /
  ``offbody:group`` trace phases and elastic off-body-rank recovery;
* :mod:`scenario` — the seeded ``repro scenario`` generator and the
  canonical ``repro-scenario/1`` JSON format.

See docs/offbody.md.
"""

from repro.offbody.driver import (
    GROUPING_STRATEGIES,
    OffBodyCase,
    OffBodyDriver,
    OffBodyEpoch,
    OffBodyRunResult,
)
from repro.offbody.manager import OffBodyLayout, OffBodyManager
from repro.offbody.patches import Patch, PatchSystem, gradient_boxes
from repro.offbody.scenario import (
    SCENARIO_KINDS,
    SCENARIO_SCHEMA,
    ScenarioError,
    TumbleDrift,
    build_offbody_case,
    generate_scenario,
    load_scenario,
    register_scenario_case,
    scenario_json,
    write_scenario,
)

__all__ = [
    "GROUPING_STRATEGIES",
    "OffBodyCase",
    "OffBodyDriver",
    "OffBodyEpoch",
    "OffBodyRunResult",
    "OffBodyLayout",
    "OffBodyManager",
    "Patch",
    "PatchSystem",
    "SCENARIO_KINDS",
    "SCENARIO_SCHEMA",
    "ScenarioError",
    "TumbleDrift",
    "build_offbody_case",
    "generate_scenario",
    "gradient_boxes",
    "load_scenario",
    "register_scenario_case",
    "scenario_json",
    "write_scenario",
]
