"""Elastic recovery: modeled costs, recovery records and the detection sim.

The driver's recovery sequence on a :class:`repro.machine.faults.RankFailure`
(see :class:`repro.core.runner.EpochRunner` for the wiring):

1. **failure detection** — the survivors run the heartbeat/timeout
   protocol (:meth:`repro.machine.simmpi.Comm.detect_failures`) on a
   fresh simulator in which the dead ranks are killed at t = 0; every
   survivor returns the identical agreed dead set, and the protocol's
   virtual cost lands in the trace under the ``failure-detection``
   phase;
2. **restore** — the last checkpoint is re-read and the world
   re-derived from its step; the modeled cost, :func:`restore_seconds`
   (:data:`RESTORE_LATENCY` plus bytes over :data:`RESTORE_BANDWIDTH`,
   for every workload), appears as a ``restore`` span on every
   survivor;
3. **repartition** — Algorithm 1 re-runs over the surviving processor
   set (``exclude_ranks`` path of :func:`repro.partition.static_lb.
   static_balance`); survivors are renumbered contiguously (ULFM-style
   shrink) and the modeled cost (:data:`REPARTITION_SECONDS`) appears
   as a ``repartition`` span;
4. the timestep loop resumes from the restored step on the shrunk
   machine.

Everything is virtual-time deterministic: repeated runs of the same
faulted case produce byte-identical metrics and traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.machine.faults import FaultPlan, FaultSpec
from repro.machine.scheduler import Simulator

if TYPE_CHECKING:  # import cycle: obs imports nothing from here
    from repro.machine.spec import MachineSpec
    from repro.obs.tracer import SpanTracer

__all__ = ["RecoveryRecord", "restore_seconds", "run_failure_detection"]

# The detection cost is *simulated* (the heartbeat protocol really runs
# on the event simulator); restore and repartition costs are *modeled*,
# because the simulated machine has no disk model.

#: Seek/open latency before checkpoint data starts flowing (s).
RESTORE_LATENCY = 0.02
#: Checkpoint read bandwidth (bytes / virtual second).
RESTORE_BANDWIDTH = 50.0e6
#: Modeled cost of re-running Algorithm 1 + rebuilding the partition
#: maps on every survivor (s).
REPARTITION_SECONDS = 5.0e-3
#: Give up (re-raise the failure) after this many recoveries.
MAX_RECOVERIES = 8


def restore_seconds(nbytes: int) -> float:
    """Modeled cost of reading back a checkpoint of ``nbytes``."""
    return RESTORE_LATENCY + nbytes / RESTORE_BANDWIDTH


@dataclass
class RecoveryRecord:
    """One completed failure/restore/repartition episode."""

    failed_ranks: tuple[int, ...]   # numbering in effect when they died
    nprocs_before: int
    nprocs_after: int
    step_failed: int                # measured step the run had reached
    step_restored: int              # measured step execution resumed from
    t_failure: float                # global virtual time of the failure
    t_detect: float                 # heartbeat protocol elapsed (s)
    t_restore: float                # modeled checkpoint read (s)
    t_repartition: float            # modeled Algorithm-1 rerun (s)
    checkpoint_bytes: int = 0
    procs_per_grid: tuple[int, ...] = field(default_factory=tuple)

    @property
    def downtime(self) -> float:
        """Virtual seconds from failure to resumed execution."""
        return self.t_detect + self.t_restore + self.t_repartition

    def describe(self) -> str:
        ranks = ",".join(str(r) for r in self.failed_ranks)
        return (
            f"recovery: rank(s) {ranks} failed at t={self.t_failure:.4f}s "
            f"(step {self.step_failed}); detected in {self.t_detect:.4f}s, "
            f"restored step {self.step_restored} "
            f"({self.checkpoint_bytes} bytes in {self.t_restore:.4f}s), "
            f"repartitioned {self.nprocs_before}->{self.nprocs_after} ranks "
            f"in {self.t_repartition:.4f}s"
        )


def run_failure_detection(
    machine: "MachineSpec",
    failed_ranks: Iterable[int],
    tracer: "SpanTracer | None" = None,
    sanitizer: Any = None,
) -> tuple[tuple[int, ...], float]:
    """Simulate the heartbeat protocol over ``machine``'s ranks.

    ``failed_ranks`` die at virtual t = 0 (they were already dead when
    detection started); every survivor runs
    :meth:`~repro.machine.simmpi.Comm.detect_failures` under the
    ``failure-detection`` phase.  Returns the agreed dead set and the
    protocol's virtual elapsed time.

    Raises ``RuntimeError`` if survivors disagree (which would indicate
    a protocol bug — the deterministic detector cannot false-positive).
    """
    dead = tuple(sorted(set(int(r) for r in failed_ranks)))
    plan = FaultPlan([FaultSpec(rank=r, time=0.0) for r in dead])

    def _program(comm):
        yield from comm.set_phase("failure-detection")
        agreed = yield from comm.detect_failures()
        return agreed

    sim = Simulator(machine, tracer=tracer, fault_plan=plan, sanitizer=sanitizer)
    sim.spawn_all(_program)
    out = sim.run(raise_on_failure=False)

    verdicts = {
        r: out.returns[r]
        for r in range(machine.nodes)
        if r not in dead
    }
    agreed_sets = set(verdicts.values())
    if len(agreed_sets) != 1:
        raise RuntimeError(
            f"failure detector disagreement: {verdicts}"
        )
    agreed = agreed_sets.pop()
    if agreed != dead:
        raise RuntimeError(
            f"failure detector found {agreed}, scheduler killed {dead}"
        )
    return agreed, out.elapsed
