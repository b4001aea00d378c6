"""Fault injection, failure detection and failure/deadlock diagnostics."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.machine import (
    ANY_SOURCE,
    DeadlockError,
    FaultPlan,
    FaultSpec,
    MachineSpec,
    NetworkSpec,
    NodeSpec,
    RankFailure,
    Simulator,
    describe_tag,
)
from repro.machine.simmpi import Comm, _pickled_size


def make_machine(nodes=2, flops=1e6, latency=1e-4, bandwidth=1e6):
    return MachineSpec(
        "test", nodes, NodeSpec(flops), NetworkSpec(latency, bandwidth)
    )


class TestFaultSpec:
    def test_parse_step(self):
        f = FaultSpec.parse("rank=3@step=40")
        assert (f.rank, f.step, f.time, f.phase_index) == (3, 40, None, None)

    def test_parse_time(self):
        f = FaultSpec.parse("rank=2@t=0.5")
        assert (f.rank, f.time) == (2, 0.5)
        assert FaultSpec.parse("rank=2@time=0.5") == f

    def test_parse_phase(self):
        f = FaultSpec.parse("rank=1@phase=12")
        assert (f.rank, f.phase_index) == (1, 12)

    @pytest.mark.parametrize(
        "bad",
        ["rank=3", "3@step=4", "rank=3@when=4", "node=3@step=4", ""],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)

    def test_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            FaultSpec(rank=0)
        with pytest.raises(ValueError):
            FaultSpec(rank=0, time=1.0, step=2)

    def test_describe_round_trips(self):
        for s in ("rank=3@step=40", "rank=2@t=0.5", "rank=1@phase=12"):
            assert FaultSpec.parse(s).describe() == s


class TestFaultPlan:
    def test_accepts_strings_and_specs(self):
        plan = FaultPlan(["rank=0@t=1.0", FaultSpec(rank=1, step=3)])
        assert len(plan) == 2 and plan

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan([])

    def test_earliest_trigger_wins(self):
        plan = FaultPlan.parse("rank=0@t=2.0", "rank=0@t=0.5", "rank=0@phase=7")
        assert plan.time_fault(0) == 0.5
        assert plan.phase_fault(0) == 7
        assert plan.time_fault(1) is None

    def test_step_vs_scheduler_split(self):
        plan = FaultPlan.parse("rank=0@step=4", "rank=1@t=1.0")
        assert [f.rank for f in plan.step_faults()] == [0]
        assert [f.rank for f in plan.scheduler_faults()] == [1]

    def test_poisson_is_seed_deterministic(self):
        a = FaultPlan.poisson(nranks=16, mtbf=5.0, horizon=10.0, seed=7)
        b = FaultPlan.poisson(nranks=16, mtbf=5.0, horizon=10.0, seed=7)
        c = FaultPlan.poisson(nranks=16, mtbf=5.0, horizon=10.0, seed=8)
        assert a.faults == b.faults
        assert a.faults != c.faults

    def test_poisson_max_faults_keeps_earliest(self):
        plan = FaultPlan.poisson(
            nranks=32, mtbf=1.0, horizon=100.0, seed=0, max_faults=3
        )
        assert len(plan) == 3


class TestSchedulerFaults:
    def test_time_fault_kills_rank(self):
        def program(comm):
            for _ in range(5):
                yield from comm.compute(flops=1e6)  # 1 s each

        sim = Simulator(
            make_machine(nodes=3),
            fault_plan=FaultPlan.parse("rank=1@t=2.0"),
        )
        sim.spawn_all(program)
        with pytest.raises(RankFailure) as exc:
            sim.run()
        assert exc.value.failed_ranks == (1,)
        # The fault fires at the first event boundary at/after t=2.0.
        assert exc.value.failed[1] == pytest.approx(2.0)

    def test_failure_message_reports_counts(self):
        def program(comm):
            yield from comm.compute(flops=1e6)
            if comm.rank == 0:
                yield from comm.recv(1, tag=5)  # never arrives: 1 is dead

        sim = Simulator(
            make_machine(nodes=3),
            fault_plan=FaultPlan.parse("rank=1@t=0.5"),
        )
        sim.spawn_all(program)
        with pytest.raises(RankFailure, match=r"1 of 3 ranks failed") as exc:
            sim.run()
        assert "1 blocked" in str(exc.value)
        assert "1 completed" in str(exc.value)
        assert exc.value.blocked == [(0, 1, 5)]
        assert exc.value.completed == [2]

    def test_all_ranks_dead_message(self):
        def program(comm):
            yield from comm.compute(flops=1e9)

        sim = Simulator(
            make_machine(nodes=2),
            fault_plan=FaultPlan.parse("rank=0@t=0.1", "rank=1@t=0.1"),
        )
        sim.spawn_all(program)
        with pytest.raises(RankFailure, match="all 2 ranks failed"):
            sim.run()

    def test_sends_to_dead_rank_are_black_holed(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(flops=1e6)
                yield from comm.send(1, tag=0, payload=None, nbytes=100)

        sim = Simulator(
            make_machine(nodes=2),
            fault_plan=FaultPlan.parse("rank=1@t=0.0"),
        )
        sim.spawn_all(program)
        out = sim.run(raise_on_failure=False)
        assert out.failed_ranks == (1,)
        assert sim.dropped_messages >= 1

    def test_phase_fault_fires_at_kth_barrier(self):
        def program(comm):
            for k in range(5):
                yield from comm.set_phase(f"phase{k}")
                yield from comm.compute(flops=1e6)

        sim = Simulator(
            make_machine(nodes=1),
            fault_plan=FaultPlan([FaultSpec(rank=0, phase_index=2)]),
        )
        sim.spawn_all(program)
        with pytest.raises(RankFailure) as exc:
            sim.run()
        # Two phases (2 x 1 s of compute) completed before the kill.
        assert exc.value.failed[0] == pytest.approx(2.0)

    def test_raise_on_failure_false_returns_survivor_results(self):
        def program(comm):
            yield from comm.compute(flops=2e6)
            return comm.rank * 10

        sim = Simulator(
            make_machine(nodes=3),
            fault_plan=FaultPlan.parse("rank=2@t=1.0"),
        )
        sim.spawn_all(program)
        out = sim.run(raise_on_failure=False)
        assert out.returns == [0, 10, None]
        assert out.failed_ranks == (2,)

    def test_blocked_survivors_raise_even_without_raise_on_failure(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.recv(1, tag=0)

        sim = Simulator(
            make_machine(nodes=2),
            fault_plan=FaultPlan.parse("rank=1@t=0.0"),
        )
        sim.spawn_all(program)
        with pytest.raises(RankFailure):
            sim.run(raise_on_failure=False)

    def test_no_fault_plan_is_unperturbed(self):
        def program(comm):
            yield from comm.compute(flops=1e6)
            return "ok"

        plain = Simulator(make_machine(nodes=2))
        plain.spawn_all(program)
        r0 = plain.run()
        empty = Simulator(make_machine(nodes=2), fault_plan=FaultPlan([]))
        empty.spawn_all(program)
        r1 = empty.run()
        assert r0.elapsed == r1.elapsed
        assert r0.returns == r1.returns == ["ok", "ok"]


class TestDeadlockDiagnostics:
    def test_deadlock_message_names_ranks_and_tags(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.recv(1, tag=5)

        sim = Simulator(make_machine(nodes=2))
        sim.spawn_all(program)
        with pytest.raises(DeadlockError) as exc:
            sim.run()
        msg = str(exc.value)
        assert "deadlock: 1 of 2 ranks blocked forever" in msg
        assert "(1 completed normally)" in msg
        assert "rank 0 blocked on recv(src=1, tag=user:5)" in msg

    def test_deadlock_message_lists_unmatched_mailbox(self):
        def program(comm):
            if comm.rank == 1:
                yield from comm.send(0, tag=7, payload=None, nbytes=8)
            if comm.rank == 0:
                yield from comm.recv(1, tag=9)  # wrong tag: never matches

        sim = Simulator(make_machine(nodes=2))
        sim.spawn_all(program)
        with pytest.raises(DeadlockError) as exc:
            sim.run()
        msg = str(exc.value)
        assert "mailbox holds 1 unmatched" in msg
        assert "tag=user:7" in msg

    def test_deadlock_message_names_every_waitany_pattern(self):
        def program(comm):
            if comm.rank == 1:
                yield from comm.send(0, tag=7, payload=None, nbytes=8)
            if comm.rank == 0:
                yield from comm.waitany(
                    ((ANY_SOURCE, 5), (1, 6), (ANY_SOURCE, 9))
                )

        sim = Simulator(make_machine(nodes=2))
        sim.spawn_all(program)
        with pytest.raises(DeadlockError) as exc:
            sim.run()
        msg = str(exc.value)
        assert (
            "rank 0 blocked on waitany(src=ANY_SOURCE, tag=user:5 | "
            "src=1, tag=user:6 | src=ANY_SOURCE, tag=user:9)"
        ) in msg
        assert "mailbox holds 1 unmatched: [(src=1, tag=user:7)]" in msg

    def test_rank_failure_lists_every_waitany_pattern(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.waitany(((1, 5), (ANY_SOURCE, 6)))

        sim = Simulator(
            make_machine(nodes=3),
            fault_plan=FaultPlan.parse("rank=1@t=0.0"),
        )
        sim.spawn_all(program)
        with pytest.raises(RankFailure, match="1 blocked") as exc:
            sim.run()
        assert exc.value.blocked == [(0, 1, 5), (0, ANY_SOURCE, 6)]

    def test_fault_is_rank_failure_not_deadlock(self):
        """A rank blocked on a dead peer is a RankFailure, never a
        (misleading) DeadlockError."""

        def program(comm):
            if comm.rank == 0:
                yield from comm.recv(1, tag=0)

        sim = Simulator(
            make_machine(nodes=2),
            fault_plan=FaultPlan.parse("rank=1@t=0.0"),
        )
        sim.spawn_all(program)
        with pytest.raises(RankFailure):
            sim.run()


class TestDescribeTag:
    def test_user_tags(self):
        assert describe_tag(5) == "user:5"
        assert describe_tag(201) == "user:201"

    def test_any_tag(self):
        from repro.machine import ANY_TAG

        assert describe_tag(ANY_TAG) == "ANY"

    def test_collective_tags_named(self):
        from repro.machine.simmpi import (
            _TAG_BARRIER,
            _TAG_BCAST,
            _TAG_HEARTBEAT,
        )

        assert "barrier" in describe_tag(_TAG_BARRIER)
        assert "bcast" in describe_tag(_TAG_BCAST)
        assert "heartbeat" in describe_tag(_TAG_HEARTBEAT)


class TestHeartbeatDetection:
    def test_no_failures_detects_empty(self):
        def program(comm):
            agreed = yield from comm.detect_failures()
            return agreed

        sim = Simulator(make_machine(nodes=4))
        sim.spawn_all(program)
        out = sim.run()
        assert out.returns == [()] * 4

    def test_survivors_agree_on_dead_set(self):
        def program(comm):
            agreed = yield from comm.detect_failures()
            return agreed

        sim = Simulator(
            make_machine(nodes=5),
            fault_plan=FaultPlan.parse("rank=1@t=0.0", "rank=3@t=0.0"),
        )
        sim.spawn_all(program)
        out = sim.run(raise_on_failure=False)
        for r in (0, 2, 4):
            assert out.returns[r] == (1, 3)

    def test_detection_is_deterministic(self):
        def program(comm):
            return (yield from comm.detect_failures())

        elapsed = []
        for _ in range(2):
            sim = Simulator(
                make_machine(nodes=6),
                fault_plan=FaultPlan.parse("rank=2@t=0.0"),
            )
            sim.spawn_all(program)
            out = sim.run(raise_on_failure=False)
            elapsed.append(out.elapsed)
        assert elapsed[0] == elapsed[1]

    def test_timeout_is_machine_derived_and_positive(self):
        comm = Comm(0, 8, make_machine(nodes=8))
        assert comm.heartbeat_timeout() > 0


@dataclass(frozen=True)
class _FrozenPoint:
    x: float
    y: float


@dataclass
class _ListHolder:
    values: list = field(default_factory=list)


class TestPayloadSizes:
    """Satellite: the estimator measures objects instead of guessing 64."""

    def test_explicit_nbytes_wins(self):
        assert Comm._size_of(np.zeros(100), 24) == 24

    def test_ndarray(self):
        assert Comm._size_of(np.zeros(10, dtype=np.float64), None) == 96

    def test_none_and_scalars(self):
        assert Comm._size_of(None, None) == 8
        assert Comm._size_of(3, None) == 16
        assert Comm._size_of(2.5, None) == 16

    def test_bytes(self):
        assert Comm._size_of(b"abcd", None) == 20

    def test_tuple_recurses(self):
        assert Comm._size_of((1, 2.5), None) == 48  # 16 + 16 + 16

    def test_dataclass_is_pickle_measured(self):
        import pickle

        obj = _FrozenPoint(1.0, 2.0)
        expect = 16 + len(pickle.dumps(obj, protocol=4))
        assert Comm._size_of(obj, None) == expect
        assert expect != 64  # no longer the old blind constant

    def test_unhashable_dataclass_measured_directly(self):
        obj = _ListHolder(values=[1, 2, 3])
        assert Comm._size_of(obj, None) == _pickled_size(obj)

    def test_hashable_payloads_memoized(self):
        from repro.machine.simmpi import _pickled_size_memo

        obj = _FrozenPoint(4.0, 5.0)
        _pickled_size_memo.cache_clear()
        first = Comm._size_of(obj, None)
        again = Comm._size_of(obj, None)
        assert first == again
        assert _pickled_size_memo.cache_info().hits >= 1

    def test_unpicklable_falls_back_to_constant(self):
        assert Comm._size_of(lambda: None, None) == 64
