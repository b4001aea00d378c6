"""SimBackend is bit-identical to driving the Simulator directly.

The backend layer must be a pure adapter: same virtual clocks, same
returns, same metrics, same trace events.  Any drift here would also
break the golden-trace battery, but this test localises the blame.
"""

from __future__ import annotations

import numpy as np

from repro.backend import get_backend
from repro.machine import sp2
from repro.machine.scheduler import Simulator
from repro.obs import SpanTracer

TAG = 11


def _program(comm):
    yield from comm.set_phase("work")
    yield from comm.compute(flops=2e6)
    dst = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    payload = np.full(64, float(comm.rank))
    yield from comm.send(dst, TAG, payload, nbytes=payload.nbytes)
    msg, status = yield from comm.recv(src, TAG)
    total = yield from comm.allreduce(float(msg[0]))
    yield from comm.barrier()
    return (comm.rank, float(msg[0]), total)


def _run_direct(nranks: int, tracer):
    sim = Simulator(sp2(nodes=nranks), tracer=tracer)
    for _ in range(nranks):
        sim.spawn(_program)
    return sim.run()


def test_sim_backend_bit_identical():
    nranks = 4
    t_direct, t_backend = SpanTracer(), SpanTracer()
    direct = _run_direct(nranks, t_direct)
    out = get_backend("sim").run_spmd(
        sp2(nodes=nranks), _program, tracer=t_backend
    )

    assert out.elapsed == direct.elapsed
    assert out.returns == direct.returns
    assert out.failed_ranks == tuple(direct.failed_ranks)
    for a, b in zip(out.metrics.ranks, direct.metrics.ranks):
        assert a.final_clock == b.final_clock
        assert a.cells == b.cells
        assert a.messages_sent == b.messages_sent
        assert a.bytes_sent == b.bytes_sent
    # Trace events are the same tuples in the same dispatch order.
    assert t_backend.ops == t_direct.ops
    assert t_backend.sends == t_direct.sends
    assert t_backend.recvs == t_direct.recvs
    assert t_backend.phase_marks == t_direct.phase_marks
    # The sim backend records virtual time.
    assert t_backend.clock == "virtual"


def test_sim_backend_repeatable():
    a = get_backend("sim").run_spmd(sp2(nodes=3), _program)
    b = get_backend("sim").run_spmd(sp2(nodes=3), _program)
    assert a.elapsed == b.elapsed
    assert a.returns == b.returns
