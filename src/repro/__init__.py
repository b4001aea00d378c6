"""repro — reproduction of Wissink & Meakin (SC 1997),
"On Parallel Implementations of Dynamic Overset Grid Methods".

Subpackages
-----------
machine
    Simulated MIMD distributed-memory machine + SimMPI message passing.
grids
    Structured curvilinear / Cartesian grid infrastructure.
partition
    Load balancing: static (Algorithm 1), dynamic (Algorithm 2),
    grouping for adaptive grids (Algorithm 3).
solver
    OVERFLOW-like structured-grid Navier-Stokes solver and its work model.
connectivity
    DCF3D-like overset domain connectivity: hole cutting, donor search,
    distributed asynchronous search protocol.
motion
    SIXDOF-like rigid-body dynamics and prescribed motions.
core
    OVERFLOW-D1 driver: per-timestep flow/move/connect loop with
    performance accounting.
offbody
    Adaptive Cartesian off-body grid scheme (paper section 5).
cases
    The paper's test problems: oscillating airfoil, descending delta
    wing, finned-store separation, X-38-like adaptive case.
"""

__version__ = "1.0.0"
