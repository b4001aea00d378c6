"""Acceptance: cluster physics is byte-identical to the simulator.

The same OVERFLOW-D1 assertions the mp backend passes
(``tests/backend/test_overflow_backends.py``), now across real TCP
daemons: per-step IGBP counts, connectivity search totals, orphan
counts and repartition decisions must match exactly; only the clock
(wall vs virtual) may differ.  The off-body driver's rank program
crosses the same wire and must reproduce its physics signature.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_backend
from repro.cases import airfoil_case, x38_case
from repro.cluster import cluster_available
from repro.core import OverflowD1
from repro.machine import sp2
from repro.obs.perf.bench import canonical_json
from repro.offbody import OffBodyDriver, build_offbody_case, generate_scenario

pytestmark = [
    pytest.mark.mp,
    pytest.mark.cluster,
    pytest.mark.skipif(
        cluster_available() is not None, reason=str(cluster_available())
    ),
]


@pytest.fixture(scope="module")
def engine():
    eng = get_backend("cluster", nnodes=2)
    yield eng
    eng.close()


def _assert_identical(sim, cl):
    assert cl.nsteps == sim.nsteps
    assert cl.nprocs == sim.nprocs
    assert len(cl.epochs) == len(sim.epochs)
    for es, ec in zip(sim.epochs, cl.epochs):
        assert ec.partition.procs_per_grid == es.partition.procs_per_grid
        assert ec.first_step == es.first_step
        assert ec.nsteps == es.nsteps
        assert np.array_equal(
            ec.igbp.per_step(), es.igbp.per_step()
        ), "per-rank-per-step IGBP counts diverged"
        assert ec.search_steps_total == es.search_steps_total
        assert ec.orphans_total == es.orphans_total
    assert cl.partition_history == sim.partition_history
    assert np.array_equal(
        cl.igbp_rollup().accumulated(), sim.igbp_rollup().accumulated()
    )
    assert cl.elapsed > 0 and sim.elapsed > 0


def test_airfoil_physics_identical(engine):
    def run(backend):
        cfg = airfoil_case(machine=sp2(nodes=4), scale=0.25, nsteps=4)
        return OverflowD1(cfg, backend=backend).run()

    _assert_identical(run("sim"), run(engine))


def test_x38_physics_identical(engine):
    def run(backend):
        cfg = x38_case(machine=sp2(nodes=4), scale=0.2, nsteps=3)
        return OverflowD1(cfg, backend=backend).run()

    _assert_identical(run("sim"), run(engine))


def test_debris_physics_identical(engine):
    def run(backend):
        # Two adapt epochs (the generator's adapt_interval is 2).
        case = build_offbody_case(
            generate_scenario("debris", seed=5, nbodies=3), nsteps=4
        )
        return OffBodyDriver(case, backend=backend).run()

    sim, cl = run("sim"), run(engine)
    assert len(sim.epochs) == 2
    assert canonical_json(cl.physics_signature()) == canonical_json(
        sim.physics_signature()
    )
