"""Concurrency stress for the mp backend's shared-memory fast path.

Payloads at or above ``SHM_THRESHOLD`` (32 KiB) travel through a
per-message ``SharedMemory`` segment instead of the pickled pipe; this
battery drives *many simultaneous* over-threshold sends between the
same rank pair — interleaved tags, both directions at once, mixed
ndarray/pickle kinds, shm racing inline — and asserts no mailbox
interleaving ever corrupts, reorders or cross-wires a payload.

Quarantined behind the ``mp`` marker like the rest of the fork tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_backend
from repro.backend.mp import SHM_THRESHOLD, mp_available
from repro.machine import sp2

pytestmark = [
    pytest.mark.mp,
    pytest.mark.skipif(
        mp_available() is not None, reason=str(mp_available())
    ),
]

# 64x64 float64 = 32 KiB: every array sent below is at the shm
# threshold; nbytes also stamps the payload's identity.
SIDE = 64
NMSG = 16
assert SIDE * SIDE * 8 >= SHM_THRESHOLD


def _run(program, nranks=2):
    return get_backend("mp").run_spmd(sp2(nodes=nranks), program)


def _stamp(rank: int, k: int) -> np.ndarray:
    """A >32 KiB array whose *every cell* encodes (sender, sequence)."""
    return np.full((SIDE, SIDE), rank * 1000.0 + k)


def _check(msg: np.ndarray, rank: int, k: int) -> None:
    expect = rank * 1000.0 + k
    assert msg.shape == (SIDE, SIDE)
    # Any interleaving corruption shows up as mixed cell values.
    assert float(msg.min()) == expect and float(msg.max()) == expect


class TestSameRankPairFlood:
    def test_many_queued_shm_sends_one_tag_stay_ordered(self):
        """NMSG over-threshold sends queued on one (src, dst, tag)
        mailbox must arrive in order, uncorrupted."""

        def program(comm):
            if comm.rank == 0:
                for k in range(NMSG):
                    big = _stamp(0, k)
                    yield from comm.send(1, 7, big, nbytes=big.nbytes)
                return 0
            out = []
            for k in range(NMSG):
                msg, status = yield from comm.recv(0, 7)
                _check(msg, 0, k)
                out.append(float(msg[0, 0]))
            return out

        result = _run(program)
        assert result.returns[1] == [float(k) for k in range(NMSG)]

    def test_interleaved_tags_never_cross_wire(self):
        """Two tag streams flooding the same rank pair concurrently;
        each stream must stay internally ordered and never leak a
        payload into the other."""

        def program(comm):
            if comm.rank == 0:
                for k in range(NMSG):
                    even = _stamp(0, 2 * k)
                    odd = _stamp(0, 2 * k + 1)
                    yield from comm.send(1, 100, even, nbytes=even.nbytes)
                    yield from comm.send(1, 200, odd, nbytes=odd.nbytes)
                return 0
            evens, odds = [], []
            # Drain the odd stream first — the even stream's segments
            # must survive queued in the mailbox meanwhile.
            for k in range(NMSG):
                msg, _ = yield from comm.recv(0, 200)
                _check(msg, 0, 2 * k + 1)
                odds.append(int(msg[0, 0]))
            for k in range(NMSG):
                msg, _ = yield from comm.recv(0, 100)
                _check(msg, 0, 2 * k)
                evens.append(int(msg[0, 0]))
            return (evens, odds)

        result = _run(program)
        evens, odds = result.returns[1]
        assert evens == [2 * k for k in range(NMSG)]
        assert odds == [2 * k + 1 for k in range(NMSG)]

    def test_bidirectional_flood_same_pair(self):
        """Both ranks flooding each other simultaneously over shm."""

        def program(comm):
            peer = 1 - comm.rank
            for k in range(NMSG):
                big = _stamp(comm.rank, k)
                yield from comm.send(peer, 5, big, nbytes=big.nbytes)
            got = []
            for k in range(NMSG):
                msg, _ = yield from comm.recv(peer, 5)
                _check(msg, peer, k)
                got.append(float(msg[0, 0]))
            return got

        result = _run(program)
        assert result.returns[0] == [1000.0 + k for k in range(NMSG)]
        assert result.returns[1] == [float(k) for k in range(NMSG)]

    def test_shm_and_inline_interleaved_on_one_mailbox(self):
        """Alternating over/under-threshold sends on one mailbox: the
        transport switches per message, ordering must not."""

        def program(comm):
            if comm.rank == 0:
                for k in range(NMSG):
                    if k % 2 == 0:
                        big = _stamp(0, k)
                        yield from comm.send(1, 9, big, nbytes=big.nbytes)
                    else:
                        yield from comm.send(1, 9, ("small", k), nbytes=64)
                return 0
            seq = []
            for k in range(NMSG):
                msg, _ = yield from comm.recv(0, 9)
                if k % 2 == 0:
                    _check(msg, 0, k)
                    seq.append(int(msg[0, 0]))
                else:
                    assert msg == ("small", k)
                    seq.append(msg[1])
            return seq

        result = _run(program)
        assert result.returns[1] == list(range(NMSG))

    def test_pickle_kind_flood(self):
        """Over-threshold non-ndarray payloads (pickle shm frames)."""

        def program(comm):
            if comm.rank == 0:
                for k in range(8):
                    # ~36 KB pickled: over the threshold.
                    blob = {"k": k, "data": list(range(12000))}
                    yield from comm.send(1, 3, blob, nbytes=48000)
                return 0
            out = []
            for k in range(8):
                msg, _ = yield from comm.recv(0, 3)
                assert msg["data"] == list(range(12000))
                out.append(msg["k"])
            return out

        result = _run(program)
        assert result.returns[1] == list(range(8))


class TestManyPairs:
    def test_all_to_one_shm_flood(self):
        """Several senders flooding one receiver concurrently: every
        (sender, sequence) stamp must arrive intact and per-sender
        FIFO order must hold."""
        nranks = 4

        def program(comm):
            if comm.rank != 0:
                for k in range(NMSG):
                    big = _stamp(comm.rank, k)
                    yield from comm.send(0, 11, big, nbytes=big.nbytes)
                return comm.rank
            seen = {r: [] for r in range(1, nranks)}
            for r in range(1, nranks):
                for k in range(NMSG):
                    msg, status = yield from comm.recv(r, 11)
                    _check(msg, r, k)
                    seen[status.source].append(int(msg[0, 0]) % 1000)
            return seen

        result = _run(program, nranks=nranks)
        seen = result.returns[0]
        for r in range(1, nranks):
            assert seen[r] == list(range(NMSG))

    def test_differential_against_sim(self):
        """The flood's values match the deterministic sim backend."""

        def program(comm):
            peer = 1 - comm.rank
            total = 0.0
            for k in range(8):
                big = _stamp(comm.rank, k)
                yield from comm.send(peer, 2, big, nbytes=big.nbytes)
            for k in range(8):
                msg, _ = yield from comm.recv(peer, 2)
                total += float(msg.sum())
            return total

        sim = get_backend("sim").run_spmd(sp2(nodes=2), program)
        mp = _run(program)
        assert mp.returns == sim.returns
