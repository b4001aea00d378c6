"""Resilience for long moving-body runs: faults, checkpoints, recovery.

The paper's regime — thousands of timesteps on tens of nodes — is
exactly where fail-stop node loss dominates operational cost, yet the
load-balance machinery the paper develops (Algorithm 1) is precisely
what elastic recovery needs to redistribute a dead rank's work over the
survivors.  This package ties the two together:

* :mod:`repro.machine.faults` — seeded, virtual-time-deterministic
  fail-stop injection (re-exported here for convenience);
* :mod:`repro.resilience.checkpoint` — versioned, checksummed,
  timestamp-free checkpoints that restore bit-identically;
* :mod:`repro.resilience.recovery` — the failure-detection simulation,
  the modeled recovery costs and per-episode records.

See ``docs/resilience.md`` for the full fault model and a recovery
walk-through.
"""

from repro.machine.faults import FaultPlan, FaultSpec, RankFailure
from repro.resilience.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointStore,
)
from repro.resilience.recovery import RecoveryRecord, run_failure_detection

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "RankFailure",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "RecoveryRecord",
    "run_failure_detection",
]
