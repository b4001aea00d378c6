"""Elastic recovery: detection, exclude_ranks, faulted runs, resume."""

import json

import numpy as np
import pytest

from repro.cases.airfoil import airfoil_case
from repro.core.overflow_d1 import OverflowD1, resume_run
from repro.machine.faults import FaultPlan
from repro.machine.spec import sp2
from repro.obs import SpanTracer
from repro.partition.assignment import build_partition
from repro.partition.static_lb import static_balance
from repro.resilience import (
    CheckpointStore,
    RecoveryPolicy,
    RecoveryRecord,
    run_failure_detection,
)

from tests.conftest import deadline


def small_case(nsteps=12, nodes=6, scale=0.3):
    return airfoil_case(machine=sp2(nodes=nodes), scale=scale, nsteps=nsteps)


def summaries(run) -> str:
    """Canonical JSON of all per-epoch rollups (byte-comparable)."""
    return json.dumps(
        [e.rollup.summary() for e in run.epochs], sort_keys=True
    )


class TestRecoveryPolicyAndRecord:
    def test_policy_defaults(self):
        p = RecoveryPolicy()
        assert p.restore_latency > 0
        assert p.restore_bandwidth > 0
        assert p.max_recoveries >= 1

    def test_record_downtime_and_describe(self):
        rec = RecoveryRecord(
            failed_ranks=(3,),
            nprocs_before=12,
            nprocs_after=11,
            step_failed=40,
            step_restored=25,
            t_failure=1.5,
            t_detect=0.01,
            t_restore=0.02,
            t_repartition=0.005,
            checkpoint_bytes=1000,
        )
        assert rec.downtime == pytest.approx(0.035)
        text = rec.describe()
        assert "rank(s) 3" in text and "12->11" in text


class TestFailureDetection:
    def test_survivors_agree_and_time_elapses(self):
        """Detection time is pinned bit for bit: (nodes, dead, elapsed)."""
        for nodes, dead, elapsed_hex in (
            (2, [1], "0x1.29cbab649d38ap-12"),
            (3, [0, 1], "0x1.362b3537f0316p-12"),  # one survivor, no agreement
            (5, [1, 3], "0x1.e1818fb798884p-12"),
            (8, [2, 5], "0x1.263afd2c10297p-11"),
            (17, [1, 6, 11], "0x1.80d3cff64cf95p-11"),
        ):
            agreed, elapsed = run_failure_detection(sp2(nodes=nodes), dead)
            assert agreed == tuple(dead)
            assert elapsed.hex() == elapsed_hex, (nodes, dead)

    def test_detection_lands_in_trace(self):
        tracer = SpanTracer()
        run_failure_detection(sp2(nodes=4), [1], tracer=tracer)
        phases = {p for (_, _, p) in tracer.phase_marks}
        assert "failure-detection" in phases

    def test_deterministic(self):
        a = run_failure_detection(sp2(nodes=8), [3])
        b = run_failure_detection(sp2(nodes=8), [3])
        assert a == b


class TestExcludeRanks:
    def test_static_balance_over_survivors(self):
        full = static_balance([1000, 1000], 8)
        shrunk = static_balance([1000, 1000], 8, exclude_ranks=[3, 6])
        assert full.nprocs == 8
        assert shrunk.nprocs == 6

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="exclude_ranks out of range"):
            static_balance([100], 4, exclude_ranks=[4])

    def test_too_few_survivors_rejected(self):
        with pytest.raises(ValueError, match="cannot cover"):
            static_balance([10, 10, 10], 3, exclude_ranks=[0])

    def test_build_partition_renumbers_contiguously(self):
        dims = [(20, 20), (16, 16)]
        part = build_partition(dims, 6, exclude_ranks=[1, 4])
        assert part.nprocs == 4
        assert [sd.rank for sd in part.subdomains] == [0, 1, 2, 3]

    def test_exclude_conflicts_with_explicit_counts(self):
        with pytest.raises(ValueError, match="cannot be combined"):
            build_partition(
                [(10, 10)], 4, procs_per_grid=[4], exclude_ranks=[0]
            )


class TestCheckpointingBitIdentity:
    """Satellite: checkpointing must not perturb a fault-free run."""

    def test_checkpointed_run_identical_to_plain(self):
        cfg = small_case()
        plain = OverflowD1(cfg).run()
        ck = OverflowD1(cfg, checkpoint_every=5).run()
        assert summaries(plain) == summaries(ck)
        assert plain.elapsed == ck.elapsed
        assert len(plain.epochs) == len(ck.epochs)
        for a, b in zip(plain.epochs, ck.epochs):
            assert np.array_equal(a.igbp.per_step(), b.igbp.per_step())
            assert a.search_steps_total == b.search_steps_total
            assert a.orphans_total == b.orphans_total
        assert ck.recoveries == []
        assert ck.wall_elapsed == plain.wall_elapsed == plain.elapsed

    def test_checkpoint_interval_choice_is_immaterial(self):
        cfg = small_case()
        a = OverflowD1(cfg, checkpoint_every=3).run()
        b = OverflowD1(cfg, checkpoint_every=7).run()
        assert summaries(a) == summaries(b)
        assert a.elapsed == b.elapsed

    def test_disk_checkpoint_equals_in_memory(self, tmp_path):
        cfg = small_case()
        store = CheckpointStore(tmp_path)
        driver = OverflowD1(cfg, checkpoint_every=5, checkpoint_store=store)
        driver.run()
        assert store.paths(), "expected periodic checkpoints on disk"
        on_disk = store.latest()
        assert on_disk.to_bytes() == driver._last_ckpt.to_bytes()

    def test_resume_from_disk_matches_uninterrupted(self, tmp_path):
        cfg = small_case()
        full = OverflowD1(cfg).run()
        store = CheckpointStore(tmp_path)
        OverflowD1(cfg, checkpoint_every=5, checkpoint_store=store).run()
        resumed = resume_run(store.latest())
        assert summaries(resumed) == summaries(full)
        assert resumed.elapsed == full.elapsed
        for a, b in zip(resumed.epochs, full.epochs):
            assert np.array_equal(a.igbp.per_step(), b.igbp.per_step())


class TestFaultInsideDcf:
    """A time-triggered fault that lands inside the DCF3D service loop.

    The survivors are parked in ``waitany`` on a rank that will never
    answer; the scheduler finds nothing wakeable and raises the typed
    ``RankFailure`` the driver recovers from.  When the loop polled,
    the survivors kept the event heap busy forever: a hang, no error.
    """

    @pytest.mark.parametrize("fraction", [0.9, 0.95])
    def test_recovers_instead_of_hanging(self, fraction):
        tracer = SpanTracer()
        base = OverflowD1(
            small_case(nsteps=3, scale=0.1), tracer=tracer
        ).run()
        t = fraction * base.time_per_step
        phase_at_t = [
            name for rank, t0, name in tracer.phase_marks
            if rank == 2 and t0 <= t
        ][-1]
        assert phase_at_t == "dcf3d"
        with deadline(30):
            run = OverflowD1(
                small_case(nsteps=3, scale=0.1), fault_plan=f"rank=2@t={t!r}"
            ).run()
        assert len(run.recoveries) == 1
        rec = run.recoveries[0]
        assert rec.failed_ranks == (2,)
        assert (rec.nprocs_before, rec.nprocs_after) == (6, 5)
        # Enacted once the machine idles, still inside step 0's DCF3D.
        assert t <= rec.t_failure < base.time_per_step
        assert sum(e.nsteps for e in run.epochs) == 3


class TestElasticRecovery:
    def test_faulted_run_completes_with_one_recovery(self):
        cfg = small_case(nsteps=12)
        run = OverflowD1(
            cfg, fault_plan="rank=2@step=6", checkpoint_every=4
        ).run()
        assert len(run.recoveries) == 1
        rec = run.recoveries[0]
        assert rec.nprocs_before == 6
        assert rec.nprocs_after == 5
        assert rec.failed_ranks == (2,)
        assert rec.downtime > 0
        # All measured steps were completed (some twice, after rollback).
        assert sum(e.nsteps for e in run.epochs) == cfg.nsteps
        assert run.epochs[-1].partition.nprocs == 5
        # Lost work + recovery overhead makes wall time exceed the sum
        # of committed epochs.
        assert run.wall_elapsed > run.elapsed
        assert run.downtime == pytest.approx(rec.downtime)

    def test_faulted_run_metrics_deterministic(self):
        outs = []
        for _ in range(3):
            run = OverflowD1(
                small_case(nsteps=12),
                fault_plan="rank=2@step=6",
                checkpoint_every=4,
            ).run()
            outs.append(
                (summaries(run), run.wall_elapsed, tuple(run.recoveries))
            )
        assert outs[0] == outs[1] == outs[2]
        assert run.wall_elapsed.hex() == "0x1.45e82e8de46ebp+1"
        assert run.downtime.hex() == "0x1.3bc9648d73459p-5"
        assert run.recoveries[0].t_detect.hex() == "0x1.19db7358bd309p-11"

    def test_recovery_without_checkpointing_uses_step0_restore(self):
        # A fault plan alone is enough: the driver takes an implicit
        # step-0 snapshot, so recovery rolls back to the beginning.
        run = OverflowD1(small_case(nsteps=8), fault_plan="rank=1@step=4").run()
        assert len(run.recoveries) == 1
        assert run.recoveries[0].step_restored == 0
        assert sum(e.nsteps for e in run.epochs) == 8

    def test_time_triggered_fault_recovers(self):
        run = OverflowD1(
            small_case(nsteps=8), fault_plan="rank=0@t=0.2", checkpoint_every=3
        ).run()
        assert len(run.recoveries) == 1
        assert sum(e.nsteps for e in run.epochs) == 8

    def test_trace_contains_recovery_spans_with_continuity(self):
        tracer = SpanTracer()
        run = OverflowD1(
            small_case(nsteps=12),
            tracer=tracer,
            fault_plan="rank=2@step=6",
            checkpoint_every=4,
        ).run()
        phases = {p for (_, _, p) in tracer.phase_marks}
        assert {"failure-detection", "restore", "repartition"} <= phases
        marks = {m[1] for m in tracer.marks}
        assert {"rank_failure", "recovery", "recovered", "checkpoint"} <= marks
        # Epoch-offset continuity: the traced timeline ends exactly at
        # the driver's wall clock (rollback + downtime included).
        assert tracer.t_end == pytest.approx(run.wall_elapsed)

    def test_chrome_trace_export_includes_recovery(self, tmp_path):
        from repro.obs import write_chrome_trace

        tracer = SpanTracer()
        OverflowD1(
            small_case(nsteps=12),
            tracer=tracer,
            fault_plan="rank=2@step=6",
            checkpoint_every=4,
        ).run()
        path = write_chrome_trace(tracer, tmp_path / "trace.json")
        blob = json.loads(path.read_text())
        names = {
            ev.get("name")
            for ev in (blob["traceEvents"] if isinstance(blob, dict) else blob)
        }
        assert "failure-detection" in names
        assert "restore" in names
        assert "repartition" in names

    def test_two_faults_two_recoveries(self):
        run = OverflowD1(
            small_case(nsteps=12),
            fault_plan=["rank=2@step=4", "rank=4@step=8"],
            checkpoint_every=3,
        ).run()
        assert len(run.recoveries) == 2
        assert run.recoveries[0].nprocs_after == 5
        assert run.recoveries[1].nprocs_after == 4
        assert sum(e.nsteps for e in run.epochs) == 12

    def test_fault_plan_object_accepted(self):
        plan = FaultPlan.parse("rank=1@step=4")
        run = OverflowD1(
            small_case(nsteps=8), fault_plan=plan, checkpoint_every=3
        ).run()
        assert len(run.recoveries) == 1
