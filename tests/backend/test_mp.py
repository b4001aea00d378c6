"""Differential battery: the mp backend reproduces sim's results.

Every test here forks real processes, so the module is quarantined
behind the ``mp`` marker (``-m "not mp"`` skips it) and skipped
automatically on hosts without the ``fork`` start method.

The contract under test: for deterministic rank programs, the *values*
(returns, payload contents, collective results, message counts) are
identical between backends; only the clocks differ (modeled virtual
seconds vs measured wall seconds).
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.backend import BackendResult, get_backend
from repro.backend import mp as mp_module
from repro.backend.mp import mp_available
from repro.machine import sp2
from repro.machine.faults import RankFailure

from tests.conftest import REPO, deadline, pid_gone

pytestmark = [
    pytest.mark.mp,
    pytest.mark.skipif(
        mp_available() is not None, reason=str(mp_available())
    ),
]

TAG = 21
NRANKS = 4


def _machine():
    return sp2(nodes=NRANKS)


def _both(program, nranks=NRANKS):
    sim = get_backend("sim").run_spmd(sp2(nodes=nranks), program)
    mp = get_backend("mp").run_spmd(
        sp2(nodes=nranks), program
    )
    assert isinstance(mp, BackendResult)
    assert mp.backend == "mp" and mp.measured
    return sim, mp


def test_ring_exchange_identical():
    def program(comm):
        dst = (comm.rank + 1) % comm.size
        src = (comm.rank - 1) % comm.size
        payload = np.arange(8, dtype=float) + comm.rank
        yield from comm.send(dst, TAG, payload, nbytes=payload.nbytes)
        msg, status = yield from comm.recv(src, TAG)
        return (comm.rank, status.source, [float(v) for v in msg])

    sim, mp = _both(program)
    assert mp.returns == sim.returns


def test_large_ndarray_via_shared_memory(monkeypatch):
    def program(comm):
        dst = (comm.rank + 1) % comm.size
        src = (comm.rank - 1) % comm.size
        big = np.full((64, 64), float(comm.rank))  # 32 KiB of float64
        yield from comm.send(dst, TAG, big, nbytes=big.nbytes)
        msg, _ = yield from comm.recv(src, TAG)
        return (msg.shape, msg.dtype.str, float(msg.sum()))

    # The array sits at the threshold, so it takes the shm path; a huge
    # threshold (inherited by the forked ranks) sends it inline.
    assert 64 * 64 * 8 >= mp_module.SHM_THRESHOLD
    sim, mp_shm = _both(program)
    monkeypatch.setattr(mp_module, "SHM_THRESHOLD", 1 << 30)
    _, mp_inline = _both(program)
    assert mp_shm.returns == sim.returns
    assert mp_inline.returns == sim.returns


def test_shm_pickle_path_for_large_objects():
    def program(comm):
        dst = (comm.rank + 1) % comm.size
        src = (comm.rank - 1) % comm.size
        # ~60 KB pickled: the whole frame is staged through a segment.
        blob = {"rank": comm.rank, "data": list(range(20000))}
        yield from comm.send(dst, TAG, blob, nbytes=80000)
        msg, _ = yield from comm.recv(src, TAG)
        return (msg["rank"], len(msg["data"]))

    sim, mp = _both(program)
    assert mp.returns == sim.returns


def test_collectives_identical():
    def program(comm):
        r = comm.rank
        total = yield from comm.allreduce(r + 1)
        word = yield from comm.bcast("hello" if r == 0 else None, root=0)
        rows = yield from comm.gather(np.full(3, float(r)), root=0)
        yield from comm.barrier()
        gathered = (
            [float(row[0]) for row in rows] if r == 0 else None
        )
        return (total, word, gathered)

    sim, mp = _both(program)
    assert mp.returns == sim.returns


def test_wildcard_free_tryrecv_and_probe():
    def program(comm):
        dst = (comm.rank + 1) % comm.size
        src = (comm.rank - 1) % comm.size
        yield from comm.send(dst, TAG, comm.rank, nbytes=8)
        # Spin on iprobe until the message is visible, then drain.
        while True:
            flag = yield from comm.iprobe(src, TAG)
            if flag:
                break
            yield from comm.elapse(1e-4)
        msgs = yield from comm.drain_recv(src, TAG)
        return [(payload, status.source) for payload, status in msgs]

    sim, mp = _both(program)
    assert mp.returns == sim.returns


def test_message_counters_match():
    def program(comm):
        dst = (comm.rank + 1) % comm.size
        src = (comm.rank - 1) % comm.size
        for _ in range(5):
            yield from comm.send(dst, TAG, None, nbytes=256)
        for _ in range(5):
            yield from comm.recv(src, TAG)
        return comm.rank

    sim, mp = _both(program)
    for a, b in zip(mp.metrics.ranks, sim.metrics.ranks):
        assert a.messages_sent == b.messages_sent
        assert a.bytes_sent == b.bytes_sent
        assert a.messages_received == b.messages_received


def test_program_exception_propagates_with_rank_note():
    def program(comm):
        yield from comm.compute(flops=1e5)
        if comm.rank == 2:
            raise ValueError("boom on rank 2")
        yield from comm.barrier()
        return comm.rank

    with pytest.raises(ValueError, match="boom on rank 2") as excinfo:
        get_backend("mp").run_spmd(_machine(), program)
    notes = getattr(excinfo.value, "__notes__", [])
    assert any("rank 2" in n for n in notes)


def test_worker_crash_surfaces_as_rank_failure():
    def program(comm):
        yield from comm.compute(flops=1e5)
        if comm.rank == 1:
            os._exit(17)  # simulate a hard crash (no exception frame)
        yield from comm.barrier()
        return comm.rank

    with pytest.raises(RankFailure) as excinfo:
        get_backend("mp").run_spmd(_machine(), program)
    assert 1 in excinfo.value.failed


def test_timeout_surfaces_as_rank_failure(monkeypatch):
    monkeypatch.setattr("repro.backend.mp.RUN_TIMEOUT", 1.0)

    def program(comm):
        if comm.rank == 0:
            # Never sent: rank 1 blocks until supervision trips.
            msg, _ = yield from comm.recv(1, TAG)
        return comm.rank

    with pytest.raises(RankFailure):
        get_backend("mp").run_spmd(sp2(nodes=2), program)


_STOPPED_RANK_SCRIPT = """
import glob, os, sys
import repro.backend.mp
from repro.backend import get_backend
from repro.machine import sp2
from repro.machine.faults import RankFailure
from tests.conftest import stops_itself

def program(comm):
    with open(sys.argv[1] + str(comm.rank), "w") as f:
        f.write(str(os.getpid()))
    return (yield from stops_itself(comm))

repro.backend.mp.RUN_TIMEOUT = 1.0
try:
    get_backend("mp").run_spmd(sp2(nodes=2), program)
except RankFailure as failure:
    print("RankFailure", *failure.failed_ranks)
print("shm", *glob.glob(f"/dev/shm/repro_mp_{os.getpid()}_*"))
"""


def test_stopped_rank_is_a_rank_failure_and_the_interpreter_exits(tmp_path):
    """A rank stopped by SIGSTOP ignores both "abort" and SIGTERM: the
    run must still end in the typed failure, leave no process and no
    segment, and — checked in a fresh interpreter, where the unreaped
    child used to hang multiprocessing's atexit join — exit."""
    script = tmp_path / "stopped_rank.py"
    script.write_text(_STOPPED_RANK_SCRIPT)
    with deadline(40):
        out = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "pid")],
            capture_output=True, text=True, timeout=30, cwd=REPO,
            env={**os.environ, "PYTHONPATH": f"{REPO / 'src'}:{REPO}"},
        )
    assert out.returncode == 0, out.stderr[-2000:]
    # Both ranks are unfinished: rank 0 waits in the barrier for rank 1.
    assert out.stdout.splitlines() == ["RankFailure 0 1", "shm"]
    for rank in (0, 1):
        assert pid_gone(int((tmp_path / f"pid{rank}").read_text()))


def test_mp_rejects_sanitizer_and_faults():
    from repro.analysis import Sanitizer

    def program(comm):
        yield from comm.barrier()
        return comm.rank

    engine = get_backend("mp")
    with pytest.raises(ValueError, match="sanitizer"):
        engine.run_spmd(_machine(), program, sanitizer=Sanitizer())
    with pytest.raises(ValueError, match="[Ff]ault"):
        engine.run_spmd(_machine(), program, fault_plan=["rank=1@step=1"])


def test_tracer_switches_to_wall_clock():
    from repro.obs import SpanTracer

    def program(comm):
        yield from comm.set_phase("work")
        yield from comm.compute(flops=1e5)
        yield from comm.barrier()
        return comm.rank

    tracer = SpanTracer()
    out = get_backend("mp").run_spmd(_machine(), program, tracer=tracer)
    assert tracer.clock == "wall"
    assert out.returns == list(range(NRANKS))
    assert tracer.nranks == NRANKS
    assert len(tracer.ops) > 0
    # Wall spans are causally ordered per rank.
    for rank in range(NRANKS):
        spans = tracer.rank_ops(rank)
        for (_, _, _, _, t1, _, _), (_, _, _, t0b, _, _, _) in zip(
            spans, spans[1:]
        ):
            assert t0b >= t1 - 1e-9
