"""Output checks: physics digests and the committed reference.

A digest is the sha256 of canonical JSON of *physics only* — per-step
per-rank I(p), donors, search steps, orphans, partition history.
Simulated and measured *times* are reported, never digested, so a later
change to timing semantics is not a failed operation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from benchmarks.perf import HERE

REFERENCE = HERE / "reference.json"


def digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def run_physics(run: Any) -> dict[str, Any]:
    """The backend-independent physics of a driver result."""
    if hasattr(run, "physics_signature"):  # OffBodyRunResult
        return run.physics_signature()
    return {
        "case": run.case,
        "nprocs": run.nprocs,
        "nsteps": run.nsteps,
        "epochs": [
            {
                "first_step": e.first_step,
                "nsteps": e.nsteps,
                "procs_per_grid": list(e.partition.procs_per_grid),
                "igbp_per_step": e.igbp.per_step().tolist(),
                "search_steps": e.search_steps_total,
                "orphans": e.orphans_total,
            }
            for e in run.epochs
        ],
    }


def reference_digest(
    workload: str, seed: int, smoke: bool, path: str | Path | None = None
) -> str | None:
    """The committed digest for this workload, if it applies.

    Entries of seeded workloads name the seed they were recorded at and
    apply to that seed only; seedless entries (``"seed": null``) apply
    always.  Full-size and smoke knobs have separate tables.
    """
    table = json.loads(Path(path or REFERENCE).read_text())
    entry = table["smoke" if smoke else "full"].get(workload)
    if entry is None or entry["seed"] not in (None, seed):
        return None
    return entry["sha256"]
