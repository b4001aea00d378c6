"""Conservative-PDES causality properties of the scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import MachineSpec, NetworkSpec, NodeSpec, Simulator


def machine(nodes, latency=1e-4, bandwidth=1e7):
    return MachineSpec("t", nodes, NodeSpec(1e7),
                       NetworkSpec(latency, bandwidth))


class TestCausality:
    def test_no_message_received_before_sent(self):
        """Receive completion time >= send time + latency, always."""
        records = []

        def program(comm):
            if comm.rank == 0:
                for k in range(10):
                    yield from comm.compute(seconds=0.01)
                    t_send = yield from comm.now()
                    yield from comm.send(1, tag=k, payload=t_send, nbytes=64)
            else:
                for k in range(10):
                    t_send, _ = yield from comm.recv(0, tag=k)
                    t_recv = yield from comm.now()
                    records.append((t_send, t_recv))

        sim = Simulator(machine(2))
        sim.spawn_all(program)
        sim.run()
        for t_send, t_recv in records:
            assert t_recv >= t_send + 1e-4

    def test_barrier_is_causal_fence(self):
        """No rank's post-barrier clock precedes any rank's pre-barrier
        clock."""
        pre = {}
        post = {}

        def program(comm):
            yield from comm.compute(seconds=0.05 * (comm.rank + 1))
            pre[comm.rank] = yield from comm.now()
            yield from comm.barrier()
            post[comm.rank] = yield from comm.now()

        sim = Simulator(machine(5))
        sim.spawn_all(program)
        sim.run()
        assert min(post.values()) >= max(pre.values())

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**31 - 1))
    def test_random_traffic_is_deterministic_and_causal(self, nodes, seed):
        def run_once():
            order = []

            def program(comm):
                rng = np.random.default_rng(seed + comm.rank)
                sent = 0
                for _ in range(8):
                    yield from comm.compute(
                        seconds=float(rng.uniform(0, 1e-3))
                    )
                    dst = int(rng.integers(0, comm.size))
                    yield from comm.send(dst, tag=1, nbytes=32)
                    sent += 1
                total = yield from comm.allreduce(sent)
                # Drain everything addressed to us before exiting.
                got = 0
                deadline = 0
                while deadline < 10000:
                    msgs = yield ("drain", -1, 1)
                    if not msgs:
                        # All messages sent globally; if we've seen our
                        # share stop, else idle a bit.
                        yield from comm.elapse(1e-5)
                        deadline += 1
                        if deadline > 200:
                            break
                    else:
                        got += len(msgs)
                order.append(total)
                return got

            sim = Simulator(machine(nodes))
            sim.spawn_all(program)
            out = sim.run()
            return out.elapsed, sum(out.returns)

        e1, got1 = run_once()
        e2, got2 = run_once()
        assert e1 == e2
        assert got1 == got2
        assert got1 == 8 * nodes  # every message eventually delivered
