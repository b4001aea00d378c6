"""Tests for group communicators (per-grid processor groups)."""

import numpy as np
import pytest

from repro.machine import MachineSpec, NetworkSpec, NodeSpec, Simulator
from repro.machine.simmpi import SubComm


def machine(nodes):
    return MachineSpec("t", nodes, NodeSpec(1e7), NetworkSpec(1e-5, 1e8))


def run(nodes, program):
    sim = Simulator(machine(nodes))
    sim.spawn_all(program)
    return sim.run()


class TestSplit:
    def test_local_ranks_and_sizes(self):
        def program(comm):
            members = [0, 2, 3] if comm.rank in (0, 2, 3) else [1, 4]
            sub = comm.split(members)
            yield from ()
            return sub.rank, sub.size

        result = run(5, program)
        assert result.returns[0] == (0, 3)
        assert result.returns[2] == (1, 3)
        assert result.returns[3] == (2, 3)
        assert result.returns[1] == (0, 2)
        assert result.returns[4] == (1, 2)

    def test_nonmember_rejected(self):
        def program(comm):
            yield from ()
            if comm.rank == 0:
                comm.split([1, 2])

        with pytest.raises(ValueError, match="not a member"):
            run(3, program)

    def test_out_of_range_rejected(self):
        def program(comm):
            yield from ()
            comm.split([comm.rank, 99])

        with pytest.raises(ValueError, match="out of range"):
            run(2, program)

    def test_nested_split_rejected(self):
        def program(comm):
            yield from ()
            sub = comm.split(list(range(comm.size)))
            sub.split([0])

        with pytest.raises(ValueError, match="nested"):
            run(2, program)


class TestGroupTraffic:
    def test_point_to_point_uses_local_ranks(self):
        def program(comm):
            members = [1, 3]
            if comm.rank not in members:
                yield from ()
                return None
            sub = comm.split(members)
            if sub.rank == 0:
                yield from sub.send(1, tag=5, payload="hi")
                return None
            payload, status = yield from sub.recv(0, tag=5)
            return payload, status.source

        result = run(4, program)
        assert result.returns[3] == ("hi", 0)  # local source rank

    def test_concurrent_group_collectives_do_not_cross(self):
        """Two disjoint groups run allreduce simultaneously; each gets
        its own sum despite identical local tags."""

        def program(comm):
            members = (
                [0, 1, 2] if comm.rank < 3 else [3, 4]
            )
            sub = comm.split(members)
            total = yield from sub.allreduce(comm.rank + 1)
            return total

        result = run(5, program)
        assert result.returns[:3] == [6, 6, 6]      # 1+2+3
        assert result.returns[3:] == [9, 9]         # 4+5

    def test_group_barrier(self):
        def program(comm):
            members = [0, 1] if comm.rank < 2 else [2, 3]
            sub = comm.split(members)
            yield from comm.elapse(0.1 * comm.rank)
            yield from sub.barrier()
            return (yield from comm.now())

        result = run(4, program)
        # Group {0,1} synchronises at >= 0.1; group {2,3} at >= 0.3.
        assert min(result.returns[:2]) >= 0.1
        assert min(result.returns[2:]) >= 0.3
        # Groups are independent: group one is NOT dragged to 0.3.
        assert max(result.returns[:2]) < 0.3

    def test_sendrecv_exchange(self):
        def program(comm):
            other = 1 - comm.rank
            yield from comm.send(other, tag=9, payload=f"from{comm.rank}")
            payload, _ = yield from comm.recv(other, tag=9)
            return payload

        result = run(2, program)
        assert result.returns == ["from1", "from0"]

    def test_group_bcast(self):
        def program(comm):
            sub = comm.split(list(range(comm.size)))
            data = "root" if sub.rank == 0 else None
            return (yield from sub.bcast(data, root=0))

        result = run(5, program)
        assert all(r == "root" for r in result.returns)
