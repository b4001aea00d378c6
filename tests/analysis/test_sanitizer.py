"""SimMPI sanitizer tests: every finding kind, determinism, zero cost.

Unit tests drive the hooks directly; integration tests attach a
:class:`Sanitizer` to real scheduler runs (including the DCF protocol
and the fault battery) and assert the reports — plus the two headline
guarantees: the nondeterminism-witness report is itself deterministic,
and a sanitized run's trace is bit-identical to an unsanitized one.
"""

import json

import pytest

from repro.analysis import Sanitizer
from repro.machine import (
    ANY_SOURCE,
    MachineSpec,
    NetworkSpec,
    NodeSpec,
    Simulator,
)
from repro.machine.event import Mailbox, Message
from repro.machine.simmpi import _COLL_TAG_BASE, MAX_USER_TAG

TAG_A = 7
TAG_B = 8
TAG_DATA = 9


def make_machine(nodes=3, flops=1e6, latency=1e-4, bandwidth=1e6):
    return MachineSpec(
        "test", nodes, NodeSpec(flops), NetworkSpec(latency, bandwidth)
    )


def run_sanitized(program, nodes=3, san=None, tracer=None):
    san = Sanitizer(tracer=tracer) if san is None else san
    sim = Simulator(make_machine(nodes=nodes), tracer=tracer, sanitizer=san)
    sim.spawn_all(program)
    result = sim.run()
    return san.report(), result


class _StubState:
    """Minimal scheduler rank-state for unit-level end_run checks."""

    def __init__(self, rank, mailbox=None, failed=False):
        self.rank = rank
        self.mailbox = mailbox if mailbox is not None else Mailbox()
        self.failed = failed


# ----------------------------------------------------------------------
# message-race witnesses


def racy_program(comm):
    """Ranks 1, 2 send rank 0 the same tag; rank 0 wildcard-tryrecvs."""
    if comm.rank == 0:
        yield from comm.elapse(1.0)  # let both messages arrive
        got = []
        while len(got) < 2:
            msg = yield from comm._tryrecv(ANY_SOURCE, TAG_A)
            if msg is None:
                yield from comm.elapse(0.01)
            else:
                got.append(msg)
        return got
    yield from comm.send(0, TAG_A, f"from-{comm.rank}", nbytes=64)


def drained_program(comm):
    """Same traffic, consumed via the canonical-order drain."""
    if comm.rank == 0:
        yield from comm.elapse(1.0)
        got = []
        while len(got) < 2:
            for payload, status in (
                yield from comm.drain_recv(ANY_SOURCE, TAG_A)
            ):
                got.append((status.source, payload))
            if len(got) < 2:
                yield from comm.elapse(0.01)
        return got
    yield from comm.send(0, TAG_A, f"from-{comm.rank}", nbytes=64)


class TestMessageRace:
    def test_wildcard_tryrecv_with_two_sources_is_witnessed(self):
        report, _ = run_sanitized(racy_program)
        races = [f for f in report.findings if f.kind == "message-race"]
        assert len(races) == 1
        f = races[0]
        assert f.rank == 0 and f.tag == TAG_A
        assert f.detail["sources"] == [1, 2]
        assert len(f.detail["seqs"]) == 2
        assert f.detail["blocking"] is False

    def test_witness_report_is_deterministic(self):
        a, _ = run_sanitized(racy_program)
        b, _ = run_sanitized(racy_program)
        assert a.to_json() == b.to_json()
        assert not a.ok

    def test_drain_recv_is_race_free(self):
        report, result = run_sanitized(drained_program)
        assert report.ok, report.format()
        # ... and the payloads come back in canonical (src, seq) order.
        assert result.returns[0] == [(1, "from-1"), (2, "from-2")]

    def test_single_source_wildcard_is_clean(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.recv(ANY_SOURCE, TAG_A)
            elif comm.rank == 1:
                yield from comm.send(0, TAG_A, None, nbytes=8)
            else:
                yield from comm.elapse(0.1)

        report, _ = run_sanitized(program)
        assert report.ok, report.format()


# ----------------------------------------------------------------------
# tag collisions


class TestTagCollision:
    def test_same_tag_from_two_phases(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.set_phase("subsys-a")
                yield from comm.send(2, TAG_B, None, nbytes=8)
            elif comm.rank == 1:
                yield from comm.set_phase("subsys-b")
                yield from comm.send(2, TAG_B, None, nbytes=8)
            else:
                yield from comm.recv(0, TAG_B)
                yield from comm.recv(1, TAG_B)

        report, _ = run_sanitized(program)
        hits = [f for f in report.findings if f.kind == "tag-collision"]
        assert len(hits) == 1  # deduplicated per tag
        assert hits[0].tag == TAG_B
        assert hits[0].detail["phases"] == ["subsys-a", "subsys-b"]

    def test_same_tag_same_phase_is_clean(self):
        def program(comm):
            yield from comm.set_phase("halo")
            if comm.rank == 0:
                yield from comm.send(2, TAG_B, None, nbytes=8)
            elif comm.rank == 1:
                yield from comm.send(2, TAG_B, None, nbytes=8)
            else:
                yield from comm.recv(0, TAG_B)
                yield from comm.recv(1, TAG_B)

        report, _ = run_sanitized(program)
        assert report.ok, report.format()


# ----------------------------------------------------------------------
# collective sequence cross-checking


class TestCollectiveMismatch:
    def test_matching_collectives_are_clean(self):
        def program(comm):
            yield from comm.barrier()
            yield from comm.bcast("x" if comm.rank == 1 else None, root=1)
            yield from comm.allreduce(comm.rank)

        report, _ = run_sanitized(program)
        assert report.ok, report.format()
        # Composite collectives (allreduce = reduce + bcast) record one
        # entry per constituent per rank — always a multiple of nranks.
        assert report.collectives >= 9 and report.collectives % 3 == 0

    def test_diverging_sequences_unit(self):
        san = Sanitizer()
        san.begin_run(2)
        san.on_collective(0, "barrier", None)
        san.on_collective(0, "bcast", 0)
        san.on_collective(1, "barrier", None)
        san.on_collective(1, "bcast", 1)  # different root
        san.end_run([_StubState(0), _StubState(1)], failed=False)
        hits = [
            f for f in san.findings if f.kind == "collective-mismatch"
        ]
        assert len(hits) == 1
        assert hits[0].detail["index"] == 1
        # Sequence entries are (name, root, payload_signature)
        # triples; root-only divergence leaves the signature slot None.
        assert hits[0].detail["ref_op"] == ["bcast", 0, None]
        assert hits[0].detail["got_op"] == ["bcast", 1, None]

    def test_missing_participant_unit(self):
        san = Sanitizer()
        san.begin_run(2)
        san.on_collective(0, "barrier", None)
        san.end_run([_StubState(0), _StubState(1)], failed=False)
        hits = [
            f for f in san.findings if f.kind == "collective-mismatch"
        ]
        assert len(hits) == 1
        assert hits[0].detail["missing"] == [1]

    def test_failed_run_skips_checks(self):
        san = Sanitizer()
        san.begin_run(2)
        san.on_collective(0, "barrier", None)
        san.end_run([_StubState(0), _StubState(1)], failed=True)
        assert san.findings == []



# ----------------------------------------------------------------------
# finalize leaks + reserved tags


class TestFinalizeLeak:
    def test_unconsumed_message_reported(self):
        def program(comm):
            if comm.rank == 1:
                yield from comm.send(0, TAG_DATA, "orphan", nbytes=32)
            yield from comm.elapse(0.5)

        report, _ = run_sanitized(program)
        hits = [f for f in report.findings if f.kind == "finalize-leak"]
        assert len(hits) == 1
        assert hits[0].rank == 0
        assert hits[0].detail["src"] == 1
        assert hits[0].detail["nbytes"] == 32

    def test_consumed_messages_are_clean(self):
        def program(comm):
            if comm.rank == 1:
                yield from comm.send(0, TAG_DATA, "ok", nbytes=32)
            elif comm.rank == 0:
                yield from comm.recv(1, TAG_DATA)
            yield from comm.elapse(0.1)

        report, _ = run_sanitized(program)
        assert report.ok, report.format()


class TestReservedTag:
    def test_unregistered_group_offset_unit(self):
        """Any tag in [MAX_USER_TAG, _COLL_TAG_BASE) is forged; each
        is reported once."""
        san = Sanitizer()
        san.begin_run(2)
        forged = [MAX_USER_TAG, 3 * MAX_USER_TAG + 5, _COLL_TAG_BASE - 1]
        for tag in forged + forged:
            san.on_send(0.0, 0, 1, tag, 8, "phase", dropped=False)
        hits = [f for f in san.findings if f.kind == "reserved-tag"]
        assert [f.tag for f in hits] == forged

    def test_forged_tag_in_waitany_pattern(self):
        """``Comm.waitany`` rejects reserved tags outright; a raw
        primitive yield gets past it, and the sanitizer catches that."""
        forged = 3 * MAX_USER_TAG + 5

        def program(comm):
            if comm.rank == 1:
                yield from comm.send(0, TAG_DATA, "x", nbytes=8)
            elif comm.rank == 0:
                ready = yield ("waitany", ((1, forged), (1, TAG_DATA)))
                assert ready == (1,)
                yield from comm.recv(1, TAG_DATA)

        report, _ = run_sanitized(program)
        assert [f.kind for f in report.findings] == ["reserved-tag"]
        assert "waitany pattern" in report.findings[0].message
        assert report.findings[0].tag == forged


# ----------------------------------------------------------------------
# zero-perturbation guarantee + report plumbing


class TestZeroPerturbation:
    def test_sanitizer_does_not_change_virtual_time(self):
        _, clean = run_sanitized(drained_program)
        sim = Simulator(make_machine(nodes=3))
        sim.spawn_all(drained_program)
        bare = sim.run()
        assert clean.elapsed == bare.elapsed
        assert clean.returns == bare.returns

    def test_traces_bit_identical_when_no_findings(self):
        from repro.obs import SpanTracer

        t_bare = SpanTracer()
        sim = Simulator(make_machine(nodes=3), tracer=t_bare)
        sim.spawn_all(drained_program)
        sim.run()

        t_san = SpanTracer()
        report, _ = run_sanitized(drained_program, tracer=t_san)
        assert report.ok
        assert t_san.ops == t_bare.ops
        assert t_san.phase_marks == t_bare.phase_marks
        assert t_san.marks == t_bare.marks

    def test_findings_mirrored_to_tracer_marks(self):
        from repro.obs import SpanTracer

        tracer = SpanTracer()
        report, _ = run_sanitized(racy_program, tracer=tracer)
        assert not report.ok
        kinds = [name for _, name, _ in tracer.marks]
        assert "sanitizer:message-race" in kinds


class TestReport:
    def test_counts_and_json_round_trip(self):
        report, _ = run_sanitized(racy_program)
        assert report.counts() == {"message-race": 1}
        data = json.loads(report.to_json())
        assert data["ok"] is False
        assert data["findings"][0]["kind"] == "message-race"
        assert data["runs"] == 1

    def test_format_mentions_verdict(self):
        clean, _ = run_sanitized(drained_program)
        assert "CLEAN" in clean.format()
        dirty, _ = run_sanitized(racy_program)
        assert "FINDINGS" in dirty.format()

    def test_finding_cap(self, monkeypatch):
        monkeypatch.setattr("repro.analysis.sanitizer.MAX_FINDINGS_PER_KIND", 2)
        san = Sanitizer()
        san.begin_run(2)
        for tag in range(5):
            san.on_send(0.0, 0, 1, tag, 8, "a", dropped=False)
            san.on_send(0.0, 1, 0, tag, 8, "b", dropped=False)
        assert len(san.findings) == 2

    def test_counts_include_findings_past_the_cap(self, monkeypatch):
        """Three distinct races under a cap of two: two are stored, the
        count still says three."""
        monkeypatch.setattr("repro.analysis.sanitizer.MAX_FINDINGS_PER_KIND", 2)
        san = Sanitizer()
        san.begin_run(3)
        for _ in range(3):
            box = Mailbox()
            for src in (1, 2):
                box.deposit(Message(src, 0, TAG_A, None, 8, 0.0, 0.0))
            san.on_wildcard_recv(0.0, 0, TAG_A, box, blocking=True)
        report = san.report()
        assert len(report.findings) == 2
        assert report.counts() == {"message-race": 3}
        assert json.loads(report.to_json())["counts"] == {"message-race": 3}
        assert "message-race: 3" in report.format()


# ----------------------------------------------------------------------
# the DCF protocol + fault battery stay clean (regression for the
# canonical-drain rewrite of dcf.py step 3)


class TestIntegration:
    def test_dcf_case_is_race_free(self):
        from repro.cases import airfoil_case, x38_offbody_case
        from repro.core import OverflowD1
        from repro.machine import sp2
        from repro.offbody import OffBodyDriver

        for driver, case in (
            (OverflowD1, airfoil_case(sp2(nodes=6), scale=0.05, nsteps=2)),
            (OffBodyDriver, x38_offbody_case(sp2(nodes=5), scale=0.05, nsteps=2)),
        ):
            san = Sanitizer()
            driver(case, sanitizer=san).run()
            report = san.report()
            assert report.ok, report.format()
            # The DCF service loop / patch donor exchange did exercise
            # the channels — the clean verdict is meaningful, not vacuous.
            assert report.messages_sent > 0
            assert report.messages_sent == report.messages_received
            assert report.collectives > 0

    def test_fault_battery_is_clean(self):
        from repro.cases import airfoil_case
        from repro.core import OverflowD1
        from repro.machine import sp2

        machine = sp2(nodes=6)
        cfg = airfoil_case(machine=machine, scale=0.05, nsteps=6)
        san = Sanitizer()
        OverflowD1(
            cfg,
            sanitizer=san,
            fault_plan="rank=3@step=4",
            checkpoint_every=2,
        ).run()
        report = san.report()
        assert report.ok, report.format()
        assert report.runs > 2  # epochs + detection + recovery re-runs
