"""End-to-end backend equivalence on the paper's drivers.

The acceptance contract for the mp backend: physics outputs are
*byte-identical* to the simulator — per-step IGBP counts, connectivity
search totals, orphan counts for OVERFLOW-D1; the final Q field for the
fine-grained 2-D solver (on ``mp`` and on ``cluster``, whose node
daemons receive the solver's rank program as one pickle).  Only the
clocks (virtual vs wall) differ.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_backend
from repro.backend.mp import mp_available
from repro.cases import airfoil_case
from repro.cluster import cluster_available
from repro.core import OverflowD1
from repro.machine import sp2

pytestmark = [
    pytest.mark.mp,
    pytest.mark.skipif(
        mp_available() is not None, reason=str(mp_available())
    ),
]


def _airfoil_run(backend: str):
    cfg = airfoil_case(machine=sp2(nodes=4), scale=0.25, nsteps=4)
    return OverflowD1(cfg, backend=backend).run()


def test_overflow_airfoil_physics_identical():
    sim = _airfoil_run("sim")
    mp = _airfoil_run("mp")

    assert mp.nsteps == sim.nsteps
    assert mp.nprocs == sim.nprocs
    assert len(mp.epochs) == len(sim.epochs)
    for es, em in zip(sim.epochs, mp.epochs):
        # Same repartition decisions...
        assert em.partition.procs_per_grid == es.partition.procs_per_grid
        assert em.first_step == es.first_step
        assert em.nsteps == es.nsteps
        # ...and identical connectivity physics.
        assert np.array_equal(
            em.igbp.per_step(), es.igbp.per_step()
        ), "per-rank-per-step IGBP counts diverged"
        assert em.search_steps_total == es.search_steps_total
        assert em.orphans_total == es.orphans_total
    assert mp.partition_history == sim.partition_history
    assert np.array_equal(
        mp.igbp_rollup().accumulated(), sim.igbp_rollup().accumulated()
    )
    # The clocks are the one sanctioned difference.
    assert mp.elapsed > 0 and sim.elapsed > 0


@pytest.mark.parametrize(
    "name",
    [
        "mp",
        pytest.param("cluster", marks=[
            pytest.mark.cluster,
            pytest.mark.skipif(
                cluster_available() is not None,
                reason=str(cluster_available()),
            ),
        ]),
    ],
)
def test_parallel2d_q_field_byte_identical(name):
    from repro.cases.airfoil import airfoil_grids
    from repro.solver import FlowConfig, ParallelSolver2D, Solver2D

    # The background Cartesian grid is non-periodic -> eligible for the
    # fine-grained distributed solver.
    grid = airfoil_grids(scale=0.35)[2]
    cfg = FlowConfig(mach=0.5, cfl=2.0)
    serial = Solver2D(grid, cfg)
    dt = 0.8 * serial.timestep()

    q_sim, out_sim = ParallelSolver2D(grid, cfg, sp2(nodes=4)).run(2, dt)
    engine = get_backend(name)
    try:
        q_real, out_real = ParallelSolver2D(
            grid, cfg, sp2(nodes=4), backend=engine
        ).run(2, dt)
    finally:
        engine.close()

    assert q_sim.tobytes() == q_real.tobytes()
    assert out_sim.backend == "sim" and out_real.backend == name
    assert out_real.measured
