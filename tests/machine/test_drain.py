"""The canonical-order drain primitive: Mailbox.pop_all_matching and
Comm.drain_recv."""

import pytest

from repro.machine import (
    ANY_SOURCE,
    ANY_TAG,
    MachineSpec,
    NetworkSpec,
    NodeSpec,
    Simulator,
)
from repro.machine.event import Mailbox, Message

TAG_X = 4
TAG_Y = 5


def make_machine(nodes=3, flops=1e6, latency=1e-4, bandwidth=1e6):
    return MachineSpec(
        "test", nodes, NodeSpec(flops), NetworkSpec(latency, bandwidth)
    )


def msg(src, tag, arrival, seq):
    return Message(
        src=src,
        dst=0,
        tag=tag,
        payload=f"m{src}.{seq}",
        nbytes=8,
        send_time=0.0,
        arrival_time=arrival,
        seq=seq,
    )


class TestPopAllMatching:
    def test_returns_canonical_src_seq_order(self):
        box = Mailbox()
        # Arrival order deliberately scrambled w.r.t. (src, seq).
        box.deposit(msg(2, TAG_X, arrival=0.1, seq=10))
        box.deposit(msg(1, TAG_X, arrival=0.2, seq=11))
        box.deposit(msg(1, TAG_X, arrival=0.3, seq=9))
        got = box.pop_all_matching(ANY_SOURCE, TAG_X, now=1.0)
        assert [(m.src, m.seq) for m in got] == [(1, 9), (1, 11), (2, 10)]
        assert len(box) == 0

    def test_future_messages_stay(self):
        box = Mailbox()
        box.deposit(msg(1, TAG_X, arrival=0.1, seq=1))
        box.deposit(msg(2, TAG_X, arrival=5.0, seq=2))
        got = box.pop_all_matching(ANY_SOURCE, TAG_X, now=1.0)
        assert [m.src for m in got] == [1]
        assert len(box) == 1

    def test_filters_by_src_and_tag(self):
        box = Mailbox()
        box.deposit(msg(1, TAG_X, arrival=0.1, seq=1))
        box.deposit(msg(1, TAG_Y, arrival=0.1, seq=2))
        box.deposit(msg(2, TAG_X, arrival=0.1, seq=3))
        got = box.pop_all_matching(1, TAG_X, now=1.0)
        assert [(m.src, m.tag) for m in got] == [(1, TAG_X)]
        assert len(box) == 2

    def test_empty_mailbox(self):
        assert Mailbox().pop_all_matching(ANY_SOURCE, ANY_TAG, 1.0) == []


class TestDrainRecv:
    def test_collects_arrived_messages_in_src_order(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.elapse(1.0)
                out = []
                while len(out) < 2:
                    for payload, status in (
                        yield from comm.drain_recv(ANY_SOURCE, TAG_X)
                    ):
                        out.append((status.source, payload))
                    if len(out) < 2:
                        yield from comm.elapse(0.01)
                return out
            yield from comm.send(0, TAG_X, f"p{comm.rank}", nbytes=16)

        sim = Simulator(make_machine())
        sim.spawn_all(program)
        result = sim.run()
        assert result.returns[0] == [(1, "p1"), (2, "p2")]

    def test_empty_drain_returns_empty_list(self):
        def program(comm):
            if comm.rank == 0:
                got = yield from comm.drain_recv(ANY_SOURCE, TAG_X)
                return got
            yield from comm.elapse(0.01)

        sim = Simulator(make_machine())
        sim.spawn_all(program)
        assert sim.run().returns[0] == []

    def test_drain_rejects_reserved_tag(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.drain_recv(ANY_SOURCE, 10**9)
            else:
                yield from comm.elapse(0.01)

        sim = Simulator(make_machine())
        sim.spawn_all(program)
        with pytest.raises(ValueError, match="outside the user range"):
            sim.run()

    def test_drain_counts_received_messages(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.elapse(1.0)
                yield from comm.drain_recv(ANY_SOURCE, TAG_X)
            else:
                yield from comm.send(0, TAG_X, None, nbytes=8)

        sim = Simulator(make_machine())
        sim.spawn_all(program)
        result = sim.run()
        received = sum(r.messages_received for r in result.metrics.ranks)
        assert received == 2
