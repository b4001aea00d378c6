"""ClusterBackend behaviour: pool reuse, routing, errors, registry.

Spawns real node daemons on loopback, so the module rides behind the
``mp`` + ``cluster`` markers and skips on hosts without fork.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import BackendResult, backend_help, get_backend
from repro.cluster import ClusterBackend, cluster_available
from repro.machine import sp2

pytestmark = [
    pytest.mark.mp,
    pytest.mark.cluster,
    pytest.mark.skipif(
        cluster_available() is not None, reason=str(cluster_available())
    ),
]

TAG = 9
NRANKS = 4


@pytest.fixture(scope="module")
def engine():
    eng = get_backend("cluster", nnodes=2)
    yield eng
    eng.close()


def prog_ring(comm):
    dst = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    payload = np.arange(8, dtype=float) + comm.rank
    yield from comm.send(dst, TAG, payload, nbytes=payload.nbytes)
    msg, status = yield from comm.recv(src, TAG)
    return (status.source, float(msg.sum()))


def prog_big_cross_node(comm):
    # Two ranks per node: rank 0 <-> rank 3 is guaranteed inter-node,
    # and 300k float64 is far over both the shm threshold and the
    # daemon's pipe-restaging cutoff.
    if comm.rank == 0:
        big = np.arange(300_000, dtype=float)
        yield from comm.send(3, TAG, big, nbytes=big.nbytes)
        return None
    if comm.rank == 3:
        msg, _ = yield from comm.recv(0, TAG)
        return (len(msg), float(msg[1]), float(msg.sum()))
    return None


def prog_worker_error(comm):
    yield from comm.elapse(1e-4)
    if comm.rank == 2:
        raise ValueError("deliberate rank boom")
    return comm.rank


def test_registry_lists_cluster():
    assert "cluster" in backend_help()
    eng = get_backend("cluster", nnodes=2)
    assert isinstance(eng, ClusterBackend)
    eng.close()  # never started; must be a harmless no-op


def test_capability_flags(engine):
    assert engine.name == "cluster"
    assert engine.measured and engine.elastic


def test_ring_and_warm_pool_reuse(engine):
    expected = [
        ((r - 1) % NRANKS, float(np.arange(8).sum() + 8 * ((r - 1) % NRANKS)))
        for r in range(NRANKS)
    ]
    first = engine.run_spmd(sp2(nodes=NRANKS), prog_ring)
    sup = engine.supervisor
    second = engine.run_spmd(sp2(nodes=NRANKS), prog_ring)
    assert isinstance(first, BackendResult)
    assert first.returns == expected
    assert second.returns == expected
    # Same supervisor object: the node pool survived between chunks.
    assert engine.supervisor is sup
    assert first.backend == "cluster" and first.measured
    assert first.failed_ranks == ()
    assert first.elapsed > 0.0


def test_large_payload_crosses_nodes(engine):
    out = engine.run_spmd(sp2(nodes=NRANKS), prog_big_cross_node)
    n = 300_000
    assert out.returns[3] == (n, 1.0, float(n * (n - 1) / 2))


def test_worker_error_propagates_and_pool_survives(engine):
    with pytest.raises(ValueError, match="deliberate rank boom") as info:
        engine.run_spmd(sp2(nodes=NRANKS), prog_worker_error)
    notes = "".join(getattr(info.value, "__notes__", []))
    assert "rank 2" in notes
    # The abort must not poison the pool for the next chunk.
    ok = engine.run_spmd(sp2(nodes=NRANKS), prog_ring)
    assert len(ok.returns) == NRANKS


def test_rejects_sanitizer_and_fault_plan(engine):
    from repro.machine.faults import FaultPlan, FaultSpec

    with pytest.raises(ValueError, match="sanitizer"):
        engine.run_spmd(
            sp2(nodes=NRANKS), prog_ring, sanitizer=object()
        )
    plan = FaultPlan([FaultSpec(rank=0, time=1.0)])
    with pytest.raises(ValueError, match="real faults"):
        engine.run_spmd(sp2(nodes=NRANKS), prog_ring, fault_plan=plan)


def test_more_ranks_than_machine_nodes_rejected(engine):
    with pytest.raises(ValueError, match="cannot run"):
        engine.run_spmd(sp2(nodes=2), prog_ring, nranks=3)
