"""Differential tests for the SimMPI collectives (ISSUE satellite).

Every collective is checked against a *serial reference* computed
directly from the per-rank inputs, over randomized rank counts that
include P=1 and non-powers-of-2.  A second battery pins the reserved
tag space: user tags live in [0, MAX_USER_TAG); everything above —
the collective rounds at ``_COLL_TAG_BASE`` included — is guarded
against application use so concurrent collectives can never match user
messages.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import (
    ANY_TAG,
    MAX_USER_TAG,
    MachineSpec,
    NetworkSpec,
    NodeSpec,
    Simulator,
)
from repro.machine.simmpi import _COLL_TAG_BASE


def make_machine(nodes):
    return MachineSpec(
        "diff", nodes, NodeSpec(1e6), NetworkSpec(1e-4, 1e6)
    )


def run(nodes, program, *args):
    sim = Simulator(make_machine(nodes))
    sim.spawn_all(program, *args)
    return sim.run()


# Rank counts: P=1, powers of two, and awkward non-powers-of-2.
RANK_COUNTS = st.integers(min_value=1, max_value=13)


class TestDifferentialCollectives:
    """Each collective vs. a serial reference over random rank counts."""

    @settings(max_examples=25, deadline=None)
    @given(nodes=RANK_COUNTS, seed=st.integers(0, 10_000))
    def test_allreduce_sum_matches_serial(self, nodes, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(-1000, 1000, size=nodes).tolist()
        reference = sum(values)  # serial reduction

        def program(comm):
            out = yield from comm.allreduce(values[comm.rank])
            return out

        result = run(nodes, program)
        assert result.returns == [reference] * nodes

    @settings(max_examples=25, deadline=None)
    @given(nodes=RANK_COUNTS, seed=st.integers(0, 10_000))
    def test_allreduce_max_matches_serial(self, nodes, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, size=nodes).tolist()
        reference = max(values)

        def program(comm):
            out = yield from comm.allreduce(values[comm.rank], op=max)
            return out

        result = run(nodes, program)
        assert result.returns == [reference] * nodes

    @settings(max_examples=25, deadline=None)
    @given(
        nodes=RANK_COUNTS,
        root_pick=st.integers(0, 12),
        seed=st.integers(0, 10_000),
    )
    def test_bcast_delivers_root_value_everywhere(self, nodes, root_pick, seed):
        root = root_pick % nodes
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << 30, size=nodes).tolist()

        def program(comm):
            out = yield from comm.bcast(values[comm.rank], root=root)
            return out

        result = run(nodes, program)
        assert result.returns == [values[root]] * nodes

    @settings(max_examples=25, deadline=None)
    @given(
        nodes=RANK_COUNTS,
        root_pick=st.integers(0, 12),
        seed=st.integers(0, 10_000),
    )
    def test_gather_reassembles_rank_order(self, nodes, root_pick, seed):
        root = root_pick % nodes
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << 30, size=nodes).tolist()

        def program(comm):
            out = yield from comm.gather(values[comm.rank], root=root)
            return out

        result = run(nodes, program)
        for rank, got in enumerate(result.returns):
            assert got == (values if rank == root else None)

    @settings(max_examples=25, deadline=None)
    @given(nodes=RANK_COUNTS, seed=st.integers(0, 10_000))
    def test_allgather_matches_serial(self, nodes, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << 30, size=nodes).tolist()

        def program(comm):
            out = yield from comm.allgather(values[comm.rank])
            return out

        result = run(nodes, program)
        assert result.returns == [values] * nodes

    @settings(max_examples=20, deadline=None)
    @given(nodes=RANK_COUNTS, seed=st.integers(0, 10_000))
    def test_barrier_synchronises_unequal_workloads(self, nodes, seed):
        """No rank may pass the barrier before the slowest rank reaches
        it — the post-barrier clock equals the serial max of the
        per-rank compute times (plus communication)."""
        rng = np.random.default_rng(seed)
        flops = rng.integers(1, 50, size=nodes) * 1e4
        slowest = max(flops) / 1e6  # machine computes at 1e6 flop/s

        def program(comm):
            yield from comm.compute(flops=float(flops[comm.rank]))
            yield from comm.barrier()
            return None

        result = run(nodes, program)
        assert result.elapsed >= slowest - 1e-12

    @settings(max_examples=20, deadline=None)
    @given(nodes=st.integers(2, 13), seed=st.integers(0, 10_000))
    def test_alltoall_transposes(self, nodes, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 1 << 20, size=(nodes, nodes)).tolist()

        def program(comm):
            # Personalised exchange: eager sends, one receive per source.
            for dst in range(comm.size):
                yield from comm.send(dst, 0, matrix[comm.rank][dst])
            out = []
            for src in range(comm.size):
                payload, _ = yield from comm.recv(src, 0)
                out.append(payload)
            return out

        result = run(nodes, program)
        # Serial reference: rank r ends with column r of the matrix.
        for r, got in enumerate(result.returns):
            assert got == [matrix[src][r] for src in range(nodes)]


class TestReservedTagSpace:
    """The explicit tag guard: user tags < MAX_USER_TAG; everything
    above, the collectives at ``_COLL_TAG_BASE`` included, is
    unreachable."""

    def test_reserved_spaces_are_disjoint(self):
        assert MAX_USER_TAG < _COLL_TAG_BASE

    @pytest.mark.parametrize(
        "tag", [MAX_USER_TAG, MAX_USER_TAG + 1, _COLL_TAG_BASE,
                _COLL_TAG_BASE + 3, -1]
    )
    def test_send_rejects_reserved_or_invalid_tag(self, tag):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, tag, "x")
            else:
                yield from comm.recv(0, ANY_TAG)

        with pytest.raises(ValueError, match="reserved|outside"):
            run(2, program)

    @pytest.mark.parametrize("tag", [MAX_USER_TAG, _COLL_TAG_BASE, -5])
    def test_recv_rejects_reserved_tag(self, tag):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, 7, "x")
            else:
                yield from comm.recv(0, tag)

        with pytest.raises(ValueError, match="reserved|outside"):
            run(2, program)

    @pytest.mark.parametrize("tag", [_COLL_TAG_BASE, MAX_USER_TAG])
    def test_iprobe_and_drain_reject_reserved_tag(self, tag):
        def prog_iprobe(comm):
            if comm.rank == 1:
                yield from comm.iprobe(0, tag)

        def prog_drain(comm):
            if comm.rank == 1:
                yield from comm.drain_recv(0, tag)

        for prog in (prog_iprobe, prog_drain):
            with pytest.raises(ValueError, match="reserved|outside"):
                run(2, prog)

    def test_largest_legal_tag_works(self):
        tag = MAX_USER_TAG - 1

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(1, tag, "edge")
                return None
            payload, status = yield from comm.recv(0, tag)
            return (payload, status.tag)

        result = run(2, program)
        assert result.returns[1] == ("edge", tag)

    def test_user_traffic_never_matched_by_collective(self):
        """A user message with the maximal legal tag stays queued across
        a concurrent barrier + bcast and arrives intact afterwards —
        collectives must only consume their reserved-tag rounds."""
        tag = MAX_USER_TAG - 1

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(2, tag, {"payload": 123})
            yield from comm.barrier()
            word = yield from comm.bcast("coll" if comm.rank == 1 else None,
                                         root=1)
            if comm.rank == 2:
                data, status = yield from comm.recv(0, tag)
                return (word, data, status.tag)
            return (word, None, None)

        result = run(3, program)
        assert result.returns[2] == ("coll", {"payload": 123}, tag)
