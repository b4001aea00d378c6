"""The shared worker group, driven directly.

:class:`repro.backend.mp.RankWorkers` is the one rank-worker lifecycle
both measured engines use (``mp`` hosts every rank in one group, a
cluster node daemon its own ranks), and
:class:`repro.backend.mp.ChunkOutcome` their one ending.  Before they
existed these behaviours were only reachable through two backends'
end-to-end tests.
"""

from __future__ import annotations

import glob
import itertools
import os
import time

import numpy as np
import pytest

from repro.backend.mp import (
    SHM_THRESHOLD,
    ChunkOutcome,
    RankWorkers,
    mp_available,
)
from repro.backend.proc import wait
from repro.machine import sp2
from repro.machine.faults import RankFailure
from repro.machine.metrics import RankMetrics

from tests.conftest import deadline, stops_itself

pytestmark = [
    pytest.mark.mp,
    pytest.mark.skipif(
        mp_available() is not None, reason=str(mp_available())
    ),
]

TAG = 5
_counter = itertools.count()


def _group(programs, pid_dir, trace=False):
    """A worker group over ``programs`` whose ranks each leave their
    pid in ``pid_dir`` before running."""

    def announced(program, rank):
        def run(comm):
            (pid_dir / str(rank)).write_text(str(os.getpid()))
            return (yield from program(comm))
        return run

    n = len(programs)
    return RankWorkers(
        range(n), n, sp2(nodes=n),
        [announced(p, r) for r, p in enumerate(programs)],
        runid=f"repro_test_{os.getpid()}_{next(_counter)}",
        metrics=[RankMetrics(r) for r in range(n)],
        trace=trace,
    )


def _collect(workers, count, limit=20.0):
    """Events until ``count`` have arrived (or ``limit`` seconds)."""
    events = []
    deadline = time.monotonic() + limit
    while len(events) < count:
        ready = wait(workers.waitables(), deadline)
        if not ready:
            break
        events += workers.events(ready)
    return events


def _assert_gone(workers, pid_dir):
    """No worker process left, no staged segment left."""
    for path in pid_dir.iterdir():
        with pytest.raises(ProcessLookupError):
            os.kill(int(path.read_text()), 0)
    assert glob.glob(f"/dev/shm/{workers.runid}_*") == []


def prog_returns(comm):
    yield from comm.compute(flops=1e3)
    return "fine"


def prog_raises(comm):
    yield from comm.compute(flops=1e3)
    raise ValueError("boom")


def prog_raises_unpicklable(comm):
    class Local(Exception):  # a local class cannot be pickled
        pass

    yield from comm.compute(flops=1e3)
    raise Local("boom")


def prog_dies(comm):
    yield from comm.compute(flops=1e3)
    os._exit(9)


@pytest.mark.parametrize(
    "raiser, reraised, where",
    [
        (prog_raises, ValueError, "__notes__"),
        (prog_raises_unpicklable, RuntimeError, "args"),
    ],
)
def test_one_event_per_rank_and_the_ending(tmp_path, raiser, reraised, where):
    workers = _group([prog_returns, raiser, prog_dies], tmp_path)
    try:
        events = _collect(workers, 3)
        assert sorted((rank, kind) for rank, kind, _ in events) == [
            (0, "done"), (1, "error"), (2, "crash"),
        ]
        # Exactly once: nothing is pending, nothing more to wait on.
        assert workers.pending == set()
        assert workers.waitables() == []
        assert workers.events([]) == []
    finally:
        workers.stop("abort", grace=2.0)
        workers.close()
    _assert_gone(workers, tmp_path)
    workers.close()  # idempotent

    outcome = ChunkOutcome("test", 3)
    assert not outcome.finished
    for rank, kind, payload in events:
        outcome.record(rank, kind, payload, 0.25)
        outcome.record(rank, "crash", None, 9.0)  # a late duplicate: ignored
    assert outcome.finished and not outcome.clean
    assert sorted(outcome.done) == [0] and outcome.failed == {2: 0.25}
    # A program error outranks a crash; the traceback text travels in
    # the note (or, for an unpicklable exception, in the message).
    with pytest.raises(reraised, match="boom") as info:
        outcome.result(None)
    text = "\n".join(map(str, getattr(info.value, where)))
    assert "rank 1" in text and "Traceback" in text

    crashed = ChunkOutcome("test", 3)
    crashed.record(0, "done", events[0][2], 0.1)
    crashed.fail([0, 2], 0.5)  # rank 0 already reported: stays done
    with pytest.raises(RankFailure) as failure:
        crashed.result(None)
    assert failure.value.failed_ranks == (2,)


def test_abort_reaps_a_deaf_worker_and_sweeps_in_flight_segments(tmp_path):
    def sender(comm):
        big = np.arange(SHM_THRESHOLD // 8, dtype=float)  # at the threshold
        yield from comm.send(1, TAG, big, nbytes=big.nbytes)
        return comm.rank

    def deaf(comm):
        time.sleep(60)  # never yields: sees neither the frame nor "abort"
        yield from comm.recv(0, TAG)

    workers = _group([sender, deaf], tmp_path)
    try:
        assert [(r, k) for r, k, _ in _collect(workers, 1)] == [(0, "done")]
        staged = glob.glob(f"/dev/shm/{workers.runid}_*")
        assert len(staged) == 1, "the message must be in flight"
        t0 = time.monotonic()
        workers.stop("abort", grace=0.3)
        assert time.monotonic() - t0 < 5.0, "join -> terminate, not 60 s"
    finally:
        workers.close()
    _assert_gone(workers, tmp_path)
    assert len(list(tmp_path.iterdir())) == 2


def test_abort_reaps_a_stopped_worker(tmp_path):
    """SIGTERM is not enough for a process stopped by SIGSTOP — it
    stays pending for ever — so the ladder must reach SIGKILL, or
    ``close()`` raises ``ValueError`` out of ``Process.close()``."""
    with deadline(30):
        workers = _group([stops_itself, stops_itself], tmp_path)
        try:
            assert _collect(workers, 1, limit=0.5) == []
            assert workers.pending == {0, 1}
            t0 = time.monotonic()
            workers.stop("abort", grace=0.3)
            assert time.monotonic() - t0 < 5.0
        finally:
            workers.close()
    _assert_gone(workers, tmp_path)
    assert len(list(tmp_path.iterdir())) == 2


def test_clean_chunk_unpacks_in_rank_order(tmp_path):
    from repro.obs import SpanTracer

    def program(comm):
        yield from comm.set_phase("work")
        yield from comm.send((comm.rank + 1) % comm.size, TAG, comm.rank, nbytes=8)
        got, _ = yield from comm.recv((comm.rank - 1) % comm.size, TAG)
        return got

    n = 3
    workers = _group([program] * n, tmp_path, trace=True)
    outcome = ChunkOutcome("test", n)
    try:
        for rank, kind, payload in _collect(workers, n):
            outcome.record(rank, kind, payload, 0.0)
        assert outcome.clean
    finally:
        workers.stop("exit", grace=5.0)
        workers.close()
    tracer = SpanTracer()
    result = outcome.result(tracer)
    assert result.returns == [2, 0, 1] and result.backend == "test"
    # One ordered log per rank, replayed ranks ascending: a rank's
    # phase mark precedes its ops, and rank r's events all precede
    # rank r + 1's.
    assert [m[0] for m in tracer.phase_marks] == [0, 1, 2]
    op_ranks = [e[0] for e in tracer.ops]
    assert op_ranks == sorted(op_ranks) and set(op_ranks) == {0, 1, 2}
    assert sorted(s[1:3] for s in tracer.sends) == [(0, 1), (1, 2), (2, 0)]
    assert len(tracer.recvs) == n
