"""A tier-1 pin of repartitioning near-body physics.

The wing/pylon/store case on 18 nodes with a load-balance check every
step: Algorithm 2 moves a processor between grids after the first
measured step, donors cross grids, and the restart cache has to survive
both.  The literals were recorded on ``sim`` before the DCF routing
state became arrays (``mp`` then read 5319 walk steps in the second
epoch: merging rank copies of the cache buried refreshed entries under
fork-time ones); both engines must reproduce them exactly.
"""

import pytest

from repro.backend.mp import mp_available
from repro.cases import build_case
from repro.core import OverflowD1
from repro.machine import sp2
from repro.obs import SpanTracer
from repro.obs.perf.comm_matrix import CommMatrix

#: (first_step, procs_per_grid, search_steps_total, orphans_total, I(p) rows)
EPOCHS = [
    (
        1, (2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1), 4311, 3,
        [[146, 1369, 78, 82, 0, 0, 0, 0, 37, 8, 8, 38, 134, 38, 184, 1254,
          903, 27]],
    ),
    (
        2, (2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1), 5314, 3,
        [[162, 1377, 82, 82, 0, 0, 0, 0, 37, 8, 8, 172, 38, 184, 1254, 505,
          399, 27]],
    ),
]
MESSAGES, BYTES = 870, 854408


def signature(backend):
    cfg = build_case(
        "store", machine=sp2(nodes=18), scale=0.02, nsteps=2, f0=2.0
    )
    cfg.lb_check_interval = 1
    tracer = SpanTracer()
    run = OverflowD1(cfg, tracer=tracer, backend=backend).run()
    traffic = CommMatrix.from_tracer(tracer, nranks=run.nprocs)
    epochs = [
        (
            e.first_step, tuple(e.partition.procs_per_grid),
            e.search_steps_total, e.orphans_total, e.igbp.per_step().tolist(),
        )
        for e in run.epochs
    ]
    return epochs, traffic.total_messages, traffic.total_bytes


def test_sim_reproduces_the_recorded_run():
    assert signature("sim") == (EPOCHS, MESSAGES, BYTES)


@pytest.mark.mp
@pytest.mark.skipif(mp_available() is not None, reason=str(mp_available()))
def test_mp_equals_sim():
    assert signature("mp") == (EPOCHS, MESSAGES, BYTES)
