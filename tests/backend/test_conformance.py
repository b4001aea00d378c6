"""Comm conformance: one battery, every execution engine.

The three engines (``sim``, ``mp``, ``cluster``) promise the *same*
communication semantics — per-source FIFO ordering, wildcard receive,
rank-ordered collectives, the reserved-tag guard — and the same result
shape (one rollup of per-rank rows), differing only in how time is
measured.  This module states that contract once and runs
it against each engine through a parametrized module-scoped fixture, so
a new engine earns conformance by appearing in one params list.

Engines that fork processes are quarantined behind their markers
(``mp`` for both process-backed engines, ``cluster`` additionally for
the TCP one) and skip cleanly on hosts that cannot run them.

Deliberately absent: barrier-then-drain assertions.  ``barrier()``
orders the token exchange it is built from, not independently routed
data frames, so "message visible after barrier" is not part of the
contract on the process-backed engines.
"""

from __future__ import annotations

import pytest

from repro.backend import get_backend
from repro.backend.mp import mp_available
from repro.cluster import cluster_available
from repro.machine import sp2
from repro.machine.simmpi import MAX_USER_TAG
from repro.machine.metrics import RankMetrics
from repro.obs import PhaseRollup, SpanTracer

NRANKS = 4
TAG = 5


def _make_engine(name):
    if name == "sim":
        return get_backend("sim")
    why = mp_available() if name == "mp" else cluster_available()
    if why is not None:
        pytest.skip(str(why))
    if name == "mp":
        return get_backend("mp")
    return get_backend("cluster", nnodes=2)


@pytest.fixture(
    scope="module",
    params=[
        pytest.param("sim"),
        pytest.param("mp", marks=pytest.mark.mp),
        pytest.param(
            "cluster", marks=[pytest.mark.mp, pytest.mark.cluster]
        ),
    ],
)
def engine(request):
    eng = _make_engine(request.param)
    yield eng
    eng.close()


def _run(engine, program):
    result = engine.run_spmd(sp2(nodes=NRANKS), program)
    assert result.backend == engine.name
    assert result.failed_ranks == ()
    return result.returns


# ---------------------------------------------------------------- programs
# Module-level so every engine ships/pickles them the same way.


def prog_ring(comm):
    dst = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    yield from comm.send(dst, TAG, ("tok", comm.rank), nbytes=64)
    payload, status = yield from comm.recv(src, TAG)
    return (payload[1], status.source, status.tag)


def prog_accounted_ring(comm):
    """Send ``64 * (rank + 1)`` bytes in the default phase, receive in
    a named one."""
    yield from comm.send(
        (comm.rank + 1) % comm.size, TAG, comm.rank,
        nbytes=64 * (comm.rank + 1),
    )
    yield from comm.set_phase("ring")
    yield from comm.recv((comm.rank - 1) % comm.size, TAG)


def prog_fifo(comm):
    if comm.rank == 0:
        for i in range(8):
            yield from comm.send(1, TAG, i, nbytes=8)
    elif comm.rank == 1:
        seen = []
        for _ in range(8):
            val, _ = yield from comm.recv(0, TAG)
            seen.append(val)
        return seen
    return None


def prog_tag_selectivity(comm):
    """Receiving a specific tag must not consume other-tag traffic."""
    if comm.rank == 0:
        yield from comm.send(1, TAG, "low", nbytes=8)
        yield from comm.send(1, TAG + 1, "high", nbytes=8)
    elif comm.rank == 1:
        hi, _ = yield from comm.recv(0, TAG + 1)
        lo, _ = yield from comm.recv(0, TAG)
        return (hi, lo)
    return None


def prog_wildcard(comm):
    if comm.rank == 0:
        got = []
        for _ in range(comm.size - 1):
            val, status = yield from comm.recv()
            got.append((status.source, status.tag, val))
        return sorted(got)
    yield from comm.send(0, TAG + comm.rank, comm.rank * 10, nbytes=8)
    return None


def prog_collectives(comm):
    r, n = comm.rank, comm.size
    total = yield from comm.allreduce(r + 1)
    word = yield from comm.bcast("tok" if r == 0 else None, root=0)
    rows = yield from comm.gather(r * r, root=0)
    # Back-to-back collectives on the same reserved tag (gather, then
    # allgather's internal gather) need an issuance fence: without it
    # the root's wildcard drain can take one rank's second contribution
    # in place of a slower rank's first.  Identical on all engines.
    yield from comm.barrier()
    everyone = yield from comm.allgather(r)
    # A personalised exchange is eager sends, then one receive per
    # source: ``spread[s]`` is what rank ``s`` addressed to this rank.
    for d in range(n):
        yield from comm.send(d, TAG, r * 100 + d, nbytes=8)
    spread = []
    for s in range(n):
        val, _ = yield from comm.recv(s, TAG)
        spread.append(val)
    partner = n - 1 - r
    yield from comm.send(partner, TAG + 1, r, nbytes=8)
    swapped, _ = yield from comm.recv(partner, TAG + 1)
    yield from comm.barrier()
    return (total, word, rows, everyone, spread, swapped)


def prog_iprobe(comm):
    dst = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    yield from comm.send(dst, TAG, comm.rank, nbytes=8)
    while True:
        flag = yield from comm.iprobe(src, TAG)
        if flag:
            break
        yield from comm.elapse(1e-4)
    val, status = yield from comm.recv(src, TAG)
    return (val, status.source)


def prog_drain_spin(comm):
    """Spin on the nonblocking drain (the primitive ``detect_failures``
    polls heartbeats with) until the ring neighbour's message lands."""
    dst = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    yield from comm.send(dst, TAG, ("tok", comm.rank), nbytes=8)
    while True:
        got = yield from comm.drain_recv(src, TAG)
        if got:
            ((payload, status),) = got
            return (payload, status.source)
        yield from comm.elapse(1e-4)


def prog_ping(comm):
    if comm.rank == 0:
        yield from comm.send(1, TAG, "ping", nbytes=8)
        pong, _ = yield from comm.recv(1, TAG)
        return pong
    ping, _ = yield from comm.recv(0, TAG)
    yield from comm.send(0, TAG, ping.replace("i", "o"), nbytes=8)
    return None


def prog_reserved_send(comm):
    yield from comm.send(
        (comm.rank + 1) % comm.size, MAX_USER_TAG, None, nbytes=8
    )


def prog_reserved_recv(comm):
    yield from comm.recv(0, MAX_USER_TAG + 7)


def prog_waitany_wakes(comm):
    """Three patterns, one sender: the wait ends on the second tag."""
    if comm.rank == 0:
        ready = yield from comm.waitany(
            ((1, TAG), (2, TAG + 1), (3, TAG + 2))
        )
        got = yield from comm.drain_recv(2, TAG + 1)
        return (ready, [(val, st.source, st.tag) for val, st in got])
    if comm.rank == 2:
        yield from comm.elapse(1e-3)
        yield from comm.send(0, TAG + 1, "second", nbytes=8)
    return None


FENCE = TAG + 9


def prog_waitany_ready_set(comm):
    """Ranks 1 and 3 have delivered, rank 2 never sends: the wait
    returns at once with exactly indices 0 and 2, and consumes nothing
    (per-source FIFO makes the fence prove the data already arrived)."""
    if comm.rank in (1, 3):
        yield from comm.send(0, TAG + comm.rank - 1, comm.rank, nbytes=8)
        yield from comm.send(0, FENCE, None, nbytes=8)
        return None
    if comm.rank == 2:
        return None
    yield from comm.recv(1, FENCE)
    yield from comm.recv(3, FENCE)
    patterns = ((1, TAG), (2, TAG + 1), (3, TAG + 2))
    t0 = yield from comm.now()
    first = yield from comm.waitany(patterns)
    t1 = yield from comm.now()
    again = yield from comm.waitany(patterns)
    drained = []
    for src, tag in patterns:
        got = yield from comm.drain_recv(src, tag)
        drained.append([val for val, _ in got])
    return (first, again, drained, t1 - t0)


def prog_reserved_waitany(comm):
    yield from comm.waitany(((0, TAG), (0, MAX_USER_TAG + 7)))


# ------------------------------------------------------------------- tests


def test_ring_send_recv(engine):
    expected = [
        ((r - 1) % NRANKS, (r - 1) % NRANKS, TAG) for r in range(NRANKS)
    ]
    assert _run(engine, prog_ring) == expected


def test_result_is_one_rollup_of_rank_rows(engine):
    result = engine.run_spmd(sp2(nodes=NRANKS), prog_accounted_ring)
    roll = result.metrics
    assert isinstance(roll, PhaseRollup)
    assert roll.elapsed == result.elapsed
    assert roll.phases() == ["default", "ring"]
    assert [
        (row.rank, row.messages_sent, row.bytes_sent, row.messages_received)
        for row in roll.ranks
    ] == [(r, 1, 64 * (r + 1), 1) for r in range(NRANKS)]


def test_per_source_fifo_ordering(engine):
    returns = _run(engine, prog_fifo)
    assert returns[1] == list(range(8))


def test_tag_selective_receive(engine):
    returns = _run(engine, prog_tag_selectivity)
    assert returns[1] == ("high", "low")


def test_wildcard_receive_sees_every_sender(engine):
    returns = _run(engine, prog_wildcard)
    assert returns[0] == [
        (r, TAG + r, r * 10) for r in range(1, NRANKS)
    ]


def test_collectives(engine):
    returns = _run(engine, prog_collectives)
    n = NRANKS
    for r in range(n):
        total, word, rows, everyone, spread, swapped = returns[r]
        assert total == n * (n + 1) // 2
        assert word == "tok"
        assert rows == ([k * k for k in range(n)] if r == 0 else None)
        assert everyone == list(range(n))
        assert spread == [s * 100 + r for s in range(n)]
        assert swapped == n - 1 - r


def test_iprobe_then_recv(engine):
    returns = _run(engine, prog_iprobe)
    assert returns == [((r - 1) % NRANKS, (r - 1) % NRANKS) for r in range(NRANKS)]


def test_drain_spins_until_the_message_lands(engine):
    returns = _run(engine, prog_drain_spin)
    assert returns == [
        (("tok", (r - 1) % NRANKS), (r - 1) % NRANKS) for r in range(NRANKS)
    ]


def test_carried_rows_continue_their_clocks(engine):
    """Each rank resumes at its carried row's ``final_clock``: a chunk
    handed rows that ended at 2.5 s starts there, not at 0."""
    rows = [RankMetrics(r, final_clock=2.5) for r in range(2)]
    tracer = SpanTracer()
    result = engine.run(
        sp2(nodes=2), [prog_ping, prog_ping],
        tracer=tracer, initial_metrics=rows,
    )
    assert result.returns == ["pong", None]
    assert result.elapsed > 2.5
    starts = [op[3] for op in tracer.ops]
    if engine.measured:
        assert min(starts) >= 2.5
    else:
        assert starts[0] == 2.5


def test_reserved_tag_send_rejected(engine):
    with pytest.raises(ValueError, match="reserved"):
        engine.run_spmd(sp2(nodes=NRANKS), prog_reserved_send)


def test_reserved_tag_recv_rejected(engine):
    with pytest.raises(ValueError, match="reserved"):
        engine.run_spmd(sp2(nodes=NRANKS), prog_reserved_recv)


def test_waitany_wakes_on_the_matching_pattern(engine):
    returns = _run(engine, prog_waitany_wakes)
    assert returns[0] == ((1,), [("second", 2, TAG + 1)])


def test_waitany_returns_exactly_the_ready_indices(engine):
    first, again, drained, waited = _run(engine, prog_waitany_ready_set)[0]
    assert first == (0, 2)
    assert again == (0, 2)  # nothing was consumed
    assert drained == [[1], [], [3]]
    if not engine.measured:
        assert waited == 0.0  # already arrived: no wait, no poll charge


def test_reserved_tag_waitany_rejected(engine):
    with pytest.raises(ValueError, match="reserved"):
        engine.run_spmd(sp2(nodes=NRANKS), prog_reserved_waitany)
