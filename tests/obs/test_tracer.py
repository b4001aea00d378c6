"""Unit tests for the span tracer and the scheduler's recording sites."""

import pytest

from repro.machine import (
    MachineSpec,
    NetworkSpec,
    NodeSpec,
    Simulator,
)
from repro.obs import SpanTracer, StoreTracer, load_store
from repro.obs.tracer import (
    KIND_MARK,
    KIND_OP,
    KIND_PHASE,
    KIND_RECV,
    KIND_SEND,
    EventLog,
)


def make_machine(nodes=2, flops=1e6, latency=1e-4, bandwidth=1e6):
    return MachineSpec(
        "test", nodes, NodeSpec(flops), NetworkSpec(latency, bandwidth)
    )


def run(machine, program, tracer=None, *args):
    sim = Simulator(machine, tracer=tracer)
    sim.spawn_all(program, *args)
    return sim.run()


class TestTracerInterface:
    def test_empty_trace_views(self):
        t = SpanTracer()
        assert len(t) == 0
        assert t.nranks == 0
        assert t.t_end == 0.0
        assert t.phase_spans() == {}

    def test_offset_applied_at_record_time(self):
        t = SpanTracer()
        t.op(0, "a", "compute", 0.0, 1.0, flops=5.0)
        t.advance(10.0)
        t.op(0, "a", "compute", 0.0, 1.0)
        t.phase(1, 2.0, "b")
        t.mark(0.5, "epoch", k=3)
        assert t.ops[0][3:5] == (0.0, 1.0)
        assert t.ops[1][3:5] == (10.0, 11.0)
        assert t.phase_marks == [(1, 12.0, "b")]
        assert t.marks == [(10.5, "epoch", {"k": 3})]
        assert t.offset == 10.0
        assert t.t_end == 11.0

    def test_negative_advance_raises(self):
        with pytest.raises(ValueError, match="advance"):
            SpanTracer().advance(-1.0)

    def test_rank_ops_filters(self):
        t = SpanTracer()
        t.op(0, "a", "compute", 0.0, 1.0)
        t.op(1, "a", "compute", 0.0, 2.0)
        t.op(0, "a", "comm", 1.0, 1.5)
        assert len(t.rank_ops(0)) == 2
        assert len(t.rank_ops(1)) == 1
        assert t.nranks == 2

    def test_phase_spans_coalesce_contiguous(self):
        t = SpanTracer()
        t.op(0, "flow", "compute", 0.0, 1.0)
        t.op(0, "flow", "comm", 1.0, 1.2)
        t.op(0, "dcf", "compute", 1.2, 2.0)
        t.op(0, "flow", "compute", 2.0, 2.5)
        spans = t.phase_spans()[0]
        assert spans == [
            (0.0, 1.2, "flow"),
            (1.2, 2.0, "dcf"),
            (2.0, 2.5, "flow"),
        ]

    def test_phase_spans_keep_gaps_separate(self):
        t = SpanTracer()
        t.op(0, "flow", "compute", 0.0, 1.0)
        t.op(0, "flow", "compute", 3.0, 4.0)  # rank idle in between
        spans = t.phase_spans()[0]
        assert len(spans) == 2


#: Positions of the time fields in each kind's tuple.
TIME_FIELDS = {
    KIND_OP: (3, 4),
    KIND_PHASE: (1,),
    KIND_MARK: (0,),
    KIND_SEND: (0,),
    KIND_RECV: (0,),
}


def five_kind_log():
    """One worker-style log holding every event kind once."""
    log = EventLog()
    log.phase(0, 0.25, "overflow")
    log.op(0, "overflow", "compute", 0.25, 1.5, 10.0, 64)
    log.send(0.5, 0, 1, 7, 64, "overflow")
    log.recv(0.75, 1, 0, 7, 64, "overflow")
    log.mark(1.0, "epoch", step=0)
    return log


class TestEventLog:
    def test_records_every_kind_in_order(self):
        log = five_kind_log()
        assert [kind for kind, _ in log.events] == [
            KIND_PHASE, KIND_OP, KIND_SEND, KIND_RECV, KIND_MARK,
        ]
        assert log.events[-1] == (KIND_MARK, (1.0, "epoch", {"step": 0}))

    def test_extend_shifts_every_time_field_by_the_offset(self, tmp_path):
        log = five_kind_log()
        span = SpanTracer()
        span.advance(5.0)
        span.extend(log)
        store = StoreTracer(tmp_path)
        store.advance(5.0)
        store.extend(log)
        store.close()

        assert len(span.events) == len(log.events)
        for (kind, got), (raw_kind, raw) in zip(span.events, log.events):
            assert kind == raw_kind
            assert len(got) == len(raw)
            for i, value in enumerate(raw):
                want = value + 5.0 if i in TIME_FIELDS[kind] else value
                assert got[i] == want, (kind, i)

        back = load_store(tmp_path)
        assert back.events == span.events
        for view in ("ops", "phase_marks", "marks", "sends", "recvs"):
            assert getattr(back, view) == getattr(span, view), view
        assert back.offset == span.offset == 5.0
        assert back.nranks == span.nranks == 2

    def test_span_views_follow_later_records(self):
        t = SpanTracer()
        t.op(0, "a", "compute", 0.0, 1.0)
        assert len(t.ops) == 1
        t.extend(five_kind_log())
        assert len(t.ops) == 2
        assert t.sends == [(0.5, 0, 1, 7, 64, "overflow")]


class TestSchedulerEmission:
    def test_compute_span_recorded_with_flops(self):
        def program(comm):
            yield from comm.set_phase("solve")
            yield from comm.compute(flops=2e6)

        tracer = SpanTracer()
        r = run(make_machine(nodes=1), program, tracer)
        computes = [e for e in tracer.ops if e[2] == "compute"]
        assert len(computes) == 1
        rank, phase, kind, t0, t1, flops, nbytes = computes[0]
        assert (rank, phase) == (0, "solve")
        assert t1 - t0 == pytest.approx(2.0)
        assert flops == pytest.approx(2e6)
        assert r.elapsed == pytest.approx(2.0)

    def test_send_recv_spans(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(flops=1e6)
                yield from comm.send(1, tag=7, nbytes=4096)
            else:
                yield from comm.recv(src=0, tag=7)

        tracer = SpanTracer()
        run(make_machine(), program, tracer)
        comms = [e for e in tracer.ops if e[2] == "comm" and e[0] == 0]
        waits = [e for e in tracer.ops if e[2] == "wait" and e[0] == 1]
        assert comms and comms[-1][6] == 4096  # sender-side bytes
        assert len(waits) == 1
        # Rank 1 blocked from t=0 until the message landed.
        assert waits[0][3] == pytest.approx(0.0)
        assert waits[0][4] > 0.0
        assert waits[0][6] == 4096

    def test_phase_marks_recorded(self):
        def program(comm):
            yield from comm.set_phase("a")
            yield from comm.compute(flops=1e5)
            yield from comm.set_phase("b")
            yield from comm.compute(flops=1e5)

        tracer = SpanTracer()
        run(make_machine(nodes=2), program, tracer)
        names = [(r, n) for r, _t, n in tracer.phase_marks]
        assert names.count((0, "a")) == 1
        assert names.count((1, "b")) == 1

    def test_tracing_does_not_change_virtual_time(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(flops=3e6)
                yield from comm.send(1, tag=1, nbytes=1 << 16)
            else:
                yield from comm.recv(src=0, tag=1)
                yield from comm.compute(flops=1e6)

        plain = run(make_machine(), program)
        traced = run(make_machine(), program, SpanTracer())
        assert traced.elapsed == plain.elapsed  # bit-identical

    def test_trace_covers_scheduler_total(self):
        """Each rank's spans tile its own clock; the max equals elapsed."""

        def program(comm):
            yield from comm.set_phase("p")
            yield from comm.compute(flops=(comm.rank + 1) * 1e6)
            yield from comm.barrier()

        tracer = SpanTracer()
        r = run(make_machine(nodes=3), program, tracer)
        finals = []
        for rank in range(3):
            ops = tracer.rank_ops(rank)
            accounted = sum(e[4] - e[3] for e in ops)
            final = max(e[4] for e in ops)
            # Spans are gapless: summed durations equal the rank's own
            # final clock (the barrier release is staggered, so ranks
            # may retire at slightly different virtual times).
            assert accounted == pytest.approx(final, rel=1e-12)
            finals.append(final)
        assert max(finals) == pytest.approx(r.elapsed, rel=1e-12)
