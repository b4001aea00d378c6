"""Elastic failure recovery: kill a node daemon, finish the run.

Two layers under test, both against *real* SIGKILLed (and, at the
end, SIGSTOPped — alive but mute) daemons and ranks:

* the backend layer turns a lost node into the same typed
  :class:`RankFailure` the simulator's fault plans raise, naming
  exactly the ranks that node hosted, and keeps serving chunks on the
  survivors;
* the driver layer (``repro.resilience`` wiring) catches that failure,
  restores the last checkpoint, shrink-repartitions over the survivors
  with ``static_balance(exclude_ranks=...)`` and completes the run.

This is the scenario the CI ``cluster-smoke`` job replays end to end.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.backend import get_backend
from repro.cases import airfoil_case
from repro.cluster import cluster_available
from repro.core import OverflowD1
from repro.machine import sp2
from repro.machine.faults import RankFailure
from repro.obs.tracer import SpanTracer

from tests.conftest import deadline, pid_gone, stops_itself

pytestmark = [
    pytest.mark.mp,
    pytest.mark.cluster,
    pytest.mark.skipif(
        cluster_available() is not None, reason=str(cluster_available())
    ),
]

TAG = 4


def prog_chatter(comm):
    """Keep ranks exchanging until well past the kill point."""
    dst = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    for i in range(200):
        yield from comm.send(dst, TAG, i, nbytes=8)
        yield from comm.recv(src, TAG)
        yield from comm.elapse(2e-3)
    return comm.rank


def _kill_node(engine, node_id: int) -> tuple[int, ...]:
    """SIGKILL one spawned daemon; returns the ranks it was hosting."""
    handle = engine.supervisor.nodes[node_id]
    assert handle.proc is not None, "node was not spawned by this head"
    os.kill(handle.proc.pid, signal.SIGKILL)
    return handle.node_id


def test_node_kill_raises_rankfailure_naming_its_ranks(monkeypatch):
    monkeypatch.setattr("repro.cluster.head.HB_TIMEOUT", 3.0)
    engine = get_backend("cluster", nnodes=2)
    try:
        # Warm the pool and learn the placement: 4 ranks over 2 nodes
        # puts ranks (2, 3) on node 1.
        engine.run_spmd(sp2(nodes=4), prog_chatter)

        victim = engine.supervisor.nodes[1]
        os.kill(victim.proc.pid, signal.SIGKILL)
        with pytest.raises(RankFailure) as info:
            engine.run_spmd(sp2(nodes=4), prog_chatter)
        failure = info.value
        assert failure.failed_ranks == (2, 3)
        assert failure.nranks == 4

        # The pool shrinks but keeps serving: the survivor hosts the
        # whole next chunk.
        assert engine.supervisor.alive_ids() == [0]
        out = engine.run_spmd(sp2(nodes=2), prog_chatter, nranks=2)
        assert out.returns == [0, 1]
    finally:
        engine.close()


def test_driver_recovers_and_completes_after_node_loss(monkeypatch):
    monkeypatch.setattr("repro.cluster.head.HB_TIMEOUT", 3.0)
    engine = get_backend("cluster", nnodes=2)
    kill_state = {"calls": 0}
    real_run = engine.run

    def run_with_midrun_kill(*args, **kwargs):
        kill_state["calls"] += 1
        if kill_state["calls"] == 3:
            # Third chunk: the run is past its step-2 checkpoint, so
            # the restore is a real rewind, not the implicit step-0 one.
            os.kill(
                engine.supervisor.nodes[1].proc.pid, signal.SIGKILL
            )
        return real_run(*args, **kwargs)

    engine.run = run_with_midrun_kill
    tracer = SpanTracer()
    try:
        cfg = airfoil_case(machine=sp2(nodes=6), scale=0.2, nsteps=8)
        run = OverflowD1(
            cfg, backend=engine, tracer=tracer, checkpoint_every=2
        ).run()
    finally:
        engine.run = real_run
        engine.close()

    assert run.nsteps == 8, "run must complete despite the node loss"
    assert len(run.recoveries) == 1
    rec = run.recoveries[0]
    assert rec.nprocs_before == 6
    assert rec.nprocs_after == 3, "survivor node hosts half the ranks"
    assert rec.failed_ranks == (3, 4, 5)
    assert run.epochs[-1].partition.nprocs == 3

    # The failure is recorded in the trace as a recovery episode.
    marks = [name for _, name, _ in tracer.marks]
    assert "recovery" in marks and "recovered" in marks
    rec_mark = next(a for _, n, a in tracer.marks if n == "recovery")
    assert rec_mark["failed_ranks"] == [3, 4, 5]


def prog_barrier(comm):
    yield from comm.barrier()
    return comm.rank


def test_stopped_rank_does_not_cost_the_node(monkeypatch):
    """The node's abort ladder SIGKILLs the rank that SIGTERM cannot
    reach; the daemon itself survives and hosts the next chunk."""
    monkeypatch.setattr("repro.backend.mp.RUN_TIMEOUT", 1.5)
    engine = get_backend("cluster", nnodes=2)
    try:
        with deadline(40):
            with pytest.raises(RankFailure) as info:
                engine.run_spmd(sp2(nodes=2), stops_itself)
            assert info.value.failed_ranks == (0, 1)
            assert engine.supervisor.alive_ids() == [0, 1]
            assert all(
                h.proc.poll() is None for h in engine.supervisor.nodes.values()
            )
            out = engine.run_spmd(sp2(nodes=2), prog_barrier)
            assert out.returns == [0, 1]
    finally:
        engine.close()


def test_stopped_daemon_is_a_lost_node_and_does_not_stall_close(monkeypatch):
    hb_timeout = 1.5
    monkeypatch.setattr("repro.cluster.head.HB_TIMEOUT", hb_timeout)
    engine = get_backend("cluster", nnodes=3)
    try:
        with deadline(40):
            sup = engine.supervisor
            pids = [sup.nodes[nid].proc.pid for nid in range(3)]
            # A stopped daemon keeps its socket open and says nothing:
            # only the heartbeat deadline can tell, and only SIGKILL
            # gets rid of it.
            os.kill(pids[2], signal.SIGSTOP)
            t0 = time.monotonic()
            with pytest.raises(RankFailure) as info:
                engine.run_spmd(sp2(nodes=3), prog_chatter)
            assert time.monotonic() - t0 < hb_timeout + 2.0
            assert info.value.failed_ranks == (2,)
            assert sup.alive_ids() == [0, 1] and pid_gone(pids[2])

            # Two stopped daemons share one ladder (5 s to leave, 2 s
            # after SIGTERM, SIGKILL) instead of walking it in turn.
            for pid in pids[:2]:
                os.kill(pid, signal.SIGSTOP)
            t0 = time.monotonic()
            engine.close()
            assert time.monotonic() - t0 < 9.0
            assert all(pid_gone(pid) for pid in pids)
    finally:
        engine.close()
