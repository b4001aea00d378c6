"""Integration tests for the SimMPI layer on the event scheduler."""

import numpy as np
import pytest

from repro.machine import (
    ANY_SOURCE,
    ANY_TAG,
    DeadlockError,
    MachineSpec,
    NetworkSpec,
    NodeSpec,
    Simulator,
    sp2,
)


def make_machine(nodes=2, flops=1e6, latency=1e-4, bandwidth=1e6):
    return MachineSpec(
        "test", nodes, NodeSpec(flops), NetworkSpec(latency, bandwidth)
    )


def run(machine, program, *args):
    sim = Simulator(machine)
    sim.spawn_all(program, *args)
    return sim.run()


class TestCompute:
    def test_compute_advances_clock(self):
        def program(comm):
            yield from comm.compute(flops=2e6)

        result = run(make_machine(nodes=1, flops=1e6), program)
        assert result.elapsed == pytest.approx(2.0)

    def test_flops_accounted(self):
        def program(comm):
            yield from comm.compute(flops=5e5)

        result = run(make_machine(nodes=3), program)
        assert result.metrics.total_flops() == pytest.approx(1.5e6)

    def test_elapse_charges_no_flops(self):
        def program(comm):
            yield from comm.elapse(3.5)

        result = run(make_machine(nodes=1), program)
        assert result.elapsed == pytest.approx(3.5)
        assert result.metrics.total_flops() == 0

    def test_zero_work_is_free(self):
        def program(comm):
            yield from comm.compute()

        result = run(make_machine(nodes=1), program)
        assert result.elapsed == 0.0


class TestPointToPoint:
    def test_send_recv_payload(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, tag=5, payload={"x": 42}, nbytes=100)
                return None
            payload, status = yield from comm.recv(0, tag=5)
            return payload, status

        result = run(make_machine(), program)
        payload, status = result.returns[1]
        assert payload == {"x": 42}
        assert status.source == 0 and status.tag == 5

    def test_recv_waits_for_arrival(self):
        machine = make_machine(latency=1e-3, bandwidth=1e9)

        def program(comm):
            if comm.rank == 0:
                yield from comm.elapse(0.5)
                yield from comm.send(1, tag=0, nbytes=0)
            else:
                yield from comm.recv(0, tag=0)
                return (yield from comm.now())

        result = run(machine, program)
        # Arrival = 0.5 + overhead + latency.
        assert result.returns[1] == pytest.approx(0.5 + 5e-6 + 1e-3)

    def test_message_order_preserved_per_channel(self):
        def program(comm):
            if comm.rank == 0:
                for i in range(5):
                    yield from comm.send(1, tag=1, payload=i, nbytes=8)
                return None
            got = []
            for _ in range(5):
                payload, _ = yield from comm.recv(0, tag=1)
                got.append(payload)
            return got

        result = run(make_machine(), program)
        assert result.returns[1] == [0, 1, 2, 3, 4]

    def test_wildcard_receive(self):
        def program(comm):
            if comm.rank == 0:
                got = []
                for _ in range(2):
                    payload, status = yield from comm.recv(ANY_SOURCE, ANY_TAG)
                    got.append((status.source, payload))
                return sorted(got)
            yield from comm.elapse(0.01 * comm.rank)
            yield from comm.send(0, tag=comm.rank, payload=f"r{comm.rank}")
            return None

        result = run(make_machine(nodes=3), program)
        assert result.returns[0] == [(1, "r1"), (2, "r2")]

    def test_numpy_payload_nbytes_estimated(self):
        arr = np.zeros(1000, dtype=np.float64)

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, tag=0, payload=arr)
            else:
                payload, status = yield from comm.recv(0, tag=0)
                return status.nbytes

        result = run(make_machine(), program)
        assert result.returns[1] >= 8000

    def test_self_send(self):
        def program(comm):
            yield from comm.send(comm.rank, tag=3, payload="me", nbytes=8)
            payload, _ = yield from comm.recv(comm.rank, tag=3)
            return payload

        result = run(make_machine(nodes=1), program)
        assert result.returns[0] == "me"

    def test_send_to_invalid_rank_raises(self):
        def program(comm):
            yield from comm.send(99, tag=0)

        with pytest.raises(ValueError, match="invalid rank"):
            run(make_machine(), program)


class TestNonBlocking:
    def test_irecv_wait(self):
        def program(comm):
            if comm.rank == 0:
                req = yield from comm.irecv(1, tag=2)
                payload, _ = yield from comm.wait(req)
                return payload
            yield from comm.send(0, tag=2, payload="async")
            return None

        result = run(make_machine(), program)
        assert result.returns[0] == "async"

    def test_test_polls_without_blocking(self):
        def program(comm):
            if comm.rank == 0:
                req = yield from comm.irecv(1, tag=9)
                polls = 0
                while not (yield from comm.test(req)):
                    polls += 1
                    yield from comm.elapse(0.01)
                return polls, req.payload
            yield from comm.elapse(0.05)
            yield from comm.send(0, tag=9, payload="done")
            return None

        result = run(make_machine(), program)
        polls, payload = result.returns[0]
        assert payload == "done"
        assert polls >= 3  # had to poll several times before arrival

    def test_iprobe(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, tag=4, payload=1, nbytes=8)
                return None
            # Probe until the message lands, then receive it.
            while not (yield from comm.iprobe(0, tag=4)):
                yield from comm.elapse(1e-5)
            payload, _ = yield from comm.recv(0, tag=4)
            return payload

        result = run(make_machine(), program)
        assert result.returns[1] == 1

    def test_isend_returns_completed_request(self):
        def program(comm):
            if comm.rank == 0:
                req = yield from comm.isend(1, tag=0, payload="x")
                assert req.done
                yield from comm.wait(req)
            else:
                yield from comm.recv(0, tag=0)

        run(make_machine(), program)


class TestCollectives:
    @pytest.mark.parametrize("nodes", [1, 2, 3, 4, 5, 8, 13])
    def test_barrier_all_sizes(self, nodes):
        def program(comm):
            yield from comm.elapse(0.1 * comm.rank)
            yield from comm.barrier()
            return (yield from comm.now())

        result = run(make_machine(nodes=nodes), program)
        # After a barrier everyone's clock is at least the slowest arrival.
        assert min(result.returns) >= 0.1 * (nodes - 1)

    @pytest.mark.parametrize("nodes", [1, 2, 3, 4, 7, 8, 9])
    def test_bcast_all_sizes(self, nodes):
        def program(comm):
            data = "root-data" if comm.rank == 0 else None
            got = yield from comm.bcast(data, root=0)
            return got

        result = run(make_machine(nodes=nodes), program)
        assert all(r == "root-data" for r in result.returns)

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_bcast_nonzero_root(self, root):
        def program(comm):
            data = f"from{comm.rank}" if comm.rank == root else None
            return (yield from comm.bcast(data, root=root))

        result = run(make_machine(nodes=3), program)
        assert all(r == f"from{root}" for r in result.returns)

    @pytest.mark.parametrize("nodes", [1, 2, 5])
    def test_gather(self, nodes):
        def program(comm):
            return (yield from comm.gather(comm.rank * 10, root=0))

        result = run(make_machine(nodes=nodes), program)
        assert result.returns[0] == [10 * i for i in range(nodes)]
        assert all(r is None for r in result.returns[1:])

    def test_allgather(self):
        def program(comm):
            return (yield from comm.allgather(comm.rank))

        result = run(make_machine(nodes=4), program)
        assert all(r == [0, 1, 2, 3] for r in result.returns)

    def test_allreduce_sum(self):
        def program(comm):
            return (yield from comm.allreduce(comm.rank + 1))

        result = run(make_machine(nodes=4), program)
        assert all(r == 10 for r in result.returns)

    def test_allreduce_max(self):
        def program(comm):
            return (yield from comm.allreduce(comm.rank, op=max))

        result = run(make_machine(nodes=5), program)
        assert all(r == 4 for r in result.returns)

    def test_alltoall(self):
        def program(comm):
            outgoing = [f"{comm.rank}->{d}" for d in range(comm.size)]
            return (yield from comm.alltoall(outgoing))

        result = run(make_machine(nodes=3), program)
        for r in range(3):
            assert result.returns[r] == [f"{s}->{r}" for s in range(3)]

    def test_alltoall_wrong_length_raises(self):
        def program(comm):
            yield from comm.alltoall([1])

        with pytest.raises(ValueError, match="one payload per rank"):
            run(make_machine(nodes=3), program)


class TestSchedulerSemantics:
    def test_deadlock_detected(self):
        def program(comm):
            # Everyone receives, nobody sends.
            yield from comm.recv(ANY_SOURCE, ANY_TAG)

        with pytest.raises(DeadlockError, match="blocked on recv"):
            run(make_machine(), program)

    def test_determinism(self):
        """Two identical runs give byte-identical timings."""

        def program(comm, seed):
            rng = np.random.default_rng(seed + comm.rank)
            for _ in range(20):
                yield from comm.compute(flops=float(rng.integers(1, 1000)))
                dst = int(rng.integers(0, comm.size))
                yield from comm.send(dst, tag=0, nbytes=64)
            got = 0
            while got < 20 * comm.size // comm.size:
                # Drain exactly the messages sent to us is racy to predict;
                # instead just count our own sends via allreduce below.
                break
            total = yield from comm.allreduce(1)
            # Drain remaining messages to ourselves to terminate cleanly.
            while (yield from comm.iprobe()):
                yield from comm.recv()
            return total

        def elapsed():
            sim = Simulator(make_machine(nodes=4))
            sim.spawn_all(program, 42)
            return sim.run().elapsed

        assert elapsed() == elapsed()

    def test_phase_accounting(self):
        def program(comm):
            yield from comm.set_phase("alpha")
            yield from comm.compute(flops=1e6)
            yield from comm.set_phase("beta")
            yield from comm.compute(flops=3e6)

        result = run(make_machine(nodes=1, flops=1e6), program)
        m = result.metrics
        assert m.phase_max("alpha") == pytest.approx(1.0)
        assert m.phase_max("beta") == pytest.approx(3.0)
        assert m.phase_fraction("beta") == pytest.approx(0.75)

    def test_wait_time_attributed(self):
        def program(comm):
            yield from comm.set_phase("work")
            if comm.rank == 0:
                yield from comm.elapse(1.0)
                yield from comm.send(1, tag=0, nbytes=0)
            else:
                yield from comm.recv(0, tag=0)

        result = run(make_machine(), program)
        r1 = result.metrics.ranks[1]
        assert r1.cells["work"].wait == pytest.approx(1.0, rel=0.01)

    def test_spawn_more_than_nodes_raises(self):
        sim = Simulator(make_machine(nodes=1))
        sim.spawn(lambda comm: iter(()))
        with pytest.raises(ValueError, match="cannot spawn more"):
            sim.spawn(lambda comm: iter(()))

    def test_run_without_programs_raises(self):
        with pytest.raises(ValueError, match="no rank programs"):
            Simulator(make_machine()).run()

    def test_heterogeneous_programs(self):
        def producer(comm):
            yield from comm.send(1, tag=0, payload="work-item")

        def consumer(comm):
            payload, _ = yield from comm.recv(0, tag=0)
            return payload

        sim = Simulator(make_machine(nodes=2))
        sim.spawn(producer)
        sim.spawn(consumer)
        result = sim.run()
        assert result.returns[1] == "work-item"

    def test_sp2_slower_than_sp_for_same_program(self):
        def program(comm):
            yield from comm.compute(flops=10e6)
            other = (comm.rank + 1) % comm.size
            yield from comm.send(other, tag=0, nbytes=100_000)
            yield from comm.recv(other, tag=0)

        def time_on(machine):
            sim = Simulator(machine)
            sim.spawn_all(program)
            return sim.run().elapsed

        from repro.machine import sp

        assert time_on(sp2(nodes=2)) > time_on(sp(nodes=2))
