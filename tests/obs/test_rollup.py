"""Unit tests for PhaseRollup and IgbpRollup."""

import numpy as np
import pytest

from repro.machine import MachineSpec, NetworkSpec, NodeSpec, RankMetrics, Simulator
from repro.obs import IgbpRollup, PhaseRollup, SpanTracer


def make_machine(nodes=2, flops=1e6, latency=1e-4, bandwidth=1e6):
    return MachineSpec(
        "test", nodes, NodeSpec(flops), NetworkSpec(latency, bandwidth)
    )


def traced_run(nodes, program):
    tracer = SpanTracer()
    sim = Simulator(make_machine(nodes=nodes), tracer=tracer)
    sim.spawn_all(program)
    return sim.run(), tracer


def sample_program(comm):
    yield from comm.set_phase("flow")
    yield from comm.compute(flops=(comm.rank + 1) * 1e6)
    yield from comm.set_phase("dcf")
    if comm.rank == 0:
        yield from comm.send(1, tag=3, nbytes=8000)
    elif comm.rank == 1:
        yield from comm.recv(src=0, tag=3)
    yield from comm.compute(flops=5e5)


class TestPhaseRollup:
    def test_needs_one_rank(self):
        with pytest.raises(ValueError, match="rank"):
            PhaseRollup.empty(0)

    def test_empty_cell_is_zero(self):
        roll = PhaseRollup.empty(2)
        c = roll.cell(1, "nope")
        assert c.total == 0.0 and c.events == 0
        assert roll.phases() == []
        assert roll.total_seconds() == 0.0
        assert roll.phase_fraction("nope") == 0.0
        assert roll.imbalance("nope") == 1.0

    def test_from_tracer_accumulates(self):
        t = SpanTracer()
        t.op(0, "flow", "compute", 0.0, 2.0, flops=10.0)
        t.op(0, "flow", "comm", 2.0, 2.5, nbytes=100)
        t.op(0, "dcf", "wait", 2.5, 3.0)
        t.op(1, "flow", "compute", 0.0, 1.0, flops=4.0)
        roll = PhaseRollup.from_tracer(t)
        assert roll.nranks == 2
        c = roll.cell(0, "flow")
        assert c.compute == pytest.approx(2.0)
        assert c.comm == pytest.approx(0.5)
        assert c.flops == pytest.approx(10.0)
        assert c.nbytes == 100
        assert c.events == 2
        assert roll.cell(0, "dcf").wait == pytest.approx(0.5)
        assert roll.phases() == ["flow", "dcf"]  # first-seen order
        assert roll.elapsed == pytest.approx(3.0)

    def test_from_tracer_rejects_unknown_kind(self):
        t = SpanTracer()
        t.op(0, "flow", "teleport", 0.0, 1.0)
        with pytest.raises(ValueError, match="unknown span kind"):
            PhaseRollup.from_tracer(t)

    def test_metrics_and_tracer_agree(self):
        """The two constructions agree exactly on shared fields."""
        out, tracer = traced_run(3, sample_program)
        from_m = out.metrics
        from_t = PhaseRollup.from_tracer(tracer)
        assert from_m.nranks == from_t.nranks
        assert from_m.phases() == from_t.phases()
        for phase in from_m.phases():
            for rank in range(from_m.nranks):
                cm, ct = from_m.cell(rank, phase), from_t.cell(rank, phase)
                assert cm.compute == pytest.approx(ct.compute, abs=1e-15)
                assert cm.comm == pytest.approx(ct.comm, abs=1e-15)
                assert cm.wait == pytest.approx(ct.wait, abs=1e-15)
                assert cm.flops == pytest.approx(ct.flops)

    def test_phase_statistics(self):
        t = SpanTracer()
        t.op(0, "flow", "compute", 0.0, 1.0)
        t.op(1, "flow", "compute", 0.0, 3.0)
        roll = PhaseRollup.from_tracer(t)
        np.testing.assert_allclose(roll.phase_seconds("flow"), [1.0, 3.0])
        assert roll.phase_total("flow") == pytest.approx(4.0)
        assert roll.phase_max("flow") == pytest.approx(3.0)
        assert roll.phase_avg("flow") == pytest.approx(2.0)
        assert roll.imbalance("flow") == pytest.approx(1.5)
        assert roll.phase_fraction("flow") == pytest.approx(1.0)

    def test_merge_adds_epochs(self):
        ra = [RankMetrics(r) for r in range(2)]
        rb = [RankMetrics(r) for r in range(3)]
        ra[1].final_clock, rb[2].final_clock = 1.0, 2.0
        ra[0].add_time("flow", "compute", 1.0)
        rb[0].add_time("flow", "compute", 2.0)
        rb[2].add_time("dcf", "wait", 0.5)
        rb[2].messages_sent = 4
        a, b = PhaseRollup(ra), PhaseRollup(rb)
        a.merge(b)
        assert a.nranks == 3  # repartition grew the rank count
        assert a.elapsed == pytest.approx(3.0)
        assert a.cell(0, "flow").compute == pytest.approx(3.0)
        assert a.cell(2, "dcf").wait == pytest.approx(0.5)
        assert a.ranks[2].messages_sent == 4
        assert a.phases() == ["flow", "dcf"]

    def test_breakdown_rows_and_format(self):
        out, tracer = traced_run(2, sample_program)
        roll = PhaseRollup.from_tracer(tracer)
        rows = roll.breakdown()
        assert [r["phase"] for r in rows] == ["flow", "dcf"]
        assert sum(r["fraction"] for r in rows) == pytest.approx(1.0)
        text = roll.format_breakdown()
        assert "flow" in text and "dcf" in text and "imbal" in text

    def test_summary_is_json_serialisable(self):
        import json

        _, tracer = traced_run(2, sample_program)
        roll = PhaseRollup.from_tracer(tracer)
        s = json.loads(json.dumps(roll.summary()))
        assert s["nranks"] == 2
        assert set(s["phases"]) == {"flow", "dcf"}
        for ph in s["phases"].values():
            assert ph["events"] >= 1


class TestIgbpRollup:
    def test_empty(self):
        ig = IgbpRollup()
        assert ig.nsteps == 0 and ig.nranks == 0
        assert ig.per_step().shape == (0, 0)
        assert ig.accumulated().size == 0
        assert ig.ibar() == 0.0
        assert ig.f().size == 0
        assert ig.summary()["f_max"] == 0.0

    def test_record_and_accumulate(self):
        ig = IgbpRollup()
        ig.record([10, 0, 2])
        ig.record([5, 5, 3])
        assert ig.nsteps == 2 and ig.nranks == 3
        np.testing.assert_array_equal(ig.accumulated(), [15, 5, 5])
        assert ig.ibar() == pytest.approx(25 / 3)
        np.testing.assert_allclose(ig.f(), np.array([15, 5, 5]) / (25 / 3))

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="empty"):
            IgbpRollup().record([])

    def test_size_change_restarts_window(self):
        ig = IgbpRollup()
        ig.record([1, 2, 3])
        ig.record([1, 2, 3, 4])  # repartition
        assert ig.nsteps == 1
        assert ig.nranks == 4

    def test_zero_ibar_gives_unit_factors(self):
        ig = IgbpRollup()
        ig.record([0, 0])
        np.testing.assert_array_equal(ig.f(), [1.0, 1.0])

    def test_merge_and_reset(self):
        a, b = IgbpRollup(), IgbpRollup()
        a.record([1, 1])
        b.record([2, 2])
        b.record([3, 3])
        a.merge(b)
        assert a.nsteps == 3
        np.testing.assert_array_equal(a.accumulated(), [6, 6])
        a.reset()
        assert a.nsteps == 0

    def test_record_copies_input(self):
        ig = IgbpRollup()
        arr = np.array([5, 5])
        ig.record(arr)
        arr[:] = 0  # caller mutation must not leak in
        np.testing.assert_array_equal(ig.accumulated(), [5, 5])

    def test_summary_fields(self):
        ig = IgbpRollup()
        ig.record([9, 3])
        s = ig.summary()
        assert s == {
            "nsteps": 1,
            "nranks": 2,
            "I": [9, 3],
            "ibar": 6.0,
            "f_max": 1.5,
        }
