"""The paper's test problems as ready-to-run case builders.

Each builder returns a :class:`repro.core.CaseConfig` whose grid
system matches the paper's structure (grid count, relative sizes,
IGBP/gridpoint ratio) at a chosen ``scale`` — ``scale=1.0`` reproduces
the paper's gridpoint counts, smaller values shrink every linear
dimension for fast tests and benchmarks (ratios are preserved by
scaling the fringe depth; see each module's notes).

* :mod:`airfoil` — 2-D oscillating NACA 0012 (section 4.1): 3 grids,
  64K points, IGBP ratio 44e-3, sinusoidal pitch;
* :mod:`deltawing` — descending delta wing (section 4.2): 4 grids,
  ~1M points, 33e-3, slow descent at M 0.064;
* :mod:`store` — finned-store separation (section 4.3): 16 grids
  (10 store + 3 wing/pylon + 3 background), 0.81M points, 66e-3,
  prescribed separation trajectory;
* :mod:`x38` — X-38-like blunt body: the near-body cluster alone
  (``x38_case``) or coupled to the section-5 adaptive off-body patches
  (``x38_offbody_case``).
"""

from repro.cases.airfoil import airfoil_case, airfoil_grids
from repro.cases.deltawing import deltawing_case, deltawing_grids
from repro.cases.registry import (
    CaseEntry,
    UnknownCaseError,
    build_case,
    case_entry,
    case_names,
    register_case,
)
from repro.cases.store import store_case, store_grids
from repro.cases.x38 import x38_case, x38_near_body_grids, x38_offbody_case

register_case(
    "airfoil",
    airfoil_case,
    help="2-D oscillating NACA 0012 (paper section 4.1)",
)
register_case(
    "deltawing",
    deltawing_case,
    help="descending delta wing (paper section 4.2)",
)
register_case(
    "store",
    store_case,
    help="finned-store separation (paper section 4.3)",
)
register_case(
    "x38",
    x38_case,
    help=(
        "X-38-like blunt body, near-body cluster only (the section-5 "
        "adaptive scheme is repro.cases.x38_offbody_case)"
    ),
)

__all__ = [
    "airfoil_case",
    "airfoil_grids",
    "deltawing_case",
    "deltawing_grids",
    "store_case",
    "store_grids",
    "x38_case",
    "x38_near_body_grids",
    "x38_offbody_case",
    "CaseEntry",
    "UnknownCaseError",
    "build_case",
    "case_entry",
    "case_names",
    "register_case",
]
