"""``repro bench``: canonical, schema-versioned benchmark payloads.

Runs the table-reproduction scenarios (the same cases
``benchmarks/test_table*`` sweep) through the full observability stack
— span tracer, sanitizer, critical-path analyzer, comm matrix — and
emits one ``BENCH_<case>.json`` per case.  Everything in the payload is
**deterministic**: virtual elapsed time, per-phase breakdown, imbalance
metrics (including the paper's f(p) = I(p)/Ibar), critical-path chain,
comm-matrix totals, per-step trend block and the sanitizer verdict.
Two runs of the same case on the same code emit byte-identical
canonical JSON — that is what ``repro trace-diff`` and the CI perf gate
compare.  Host wall time and the measured (``mp`` / ``cluster``)
backends are ``benchmarks/perf``'s job, not this module's.

Canonical JSON: ``sort_keys=True``, ``separators=(",", ":")``, one
trailing newline, ``allow_nan=False`` (non-finite values are stringed),
so byte equality == semantic equality.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_CASES",
    "BenchSpec",
    "bench_payload",
    "canonical_json",
    "config_sha",
    "write_bench",
]

#: Version tag of the BENCH payload layout.  Bump on breaking changes;
#: ``trace-diff`` refuses to compare payloads across schema versions.
#: v2: the run streams through the trace store and the ``simulated``
#: section gains a per-step ``trend`` block.
BENCH_SCHEMA = "repro-bench/2"


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark scenario (full and ``--quick`` knobs)."""

    case: str
    machine: str
    nodes: int
    scale: float
    nsteps: int
    f0: float = math.inf
    quick_nodes: int = 6
    quick_scale: float = 0.1
    quick_nsteps: int = 3

    def knobs(self, quick: bool) -> dict[str, Any]:
        if quick:
            return {
                "nodes": self.quick_nodes,
                "scale": self.quick_scale,
                "nsteps": self.quick_nsteps,
            }
        return {"nodes": self.nodes, "scale": self.scale, "nsteps": self.nsteps}


#: The bench trajectory: one spec per paper table case (single node
#: count per case — the full sweeps stay in ``benchmarks/``).
BENCH_CASES: dict[str, BenchSpec] = {
    "airfoil": BenchSpec(
        "airfoil", "sp2", nodes=12, scale=1.0, nsteps=5,
        quick_nodes=8, quick_scale=0.25, quick_nsteps=3,
    ),
    "x38": BenchSpec(
        "x38", "sp2", nodes=8, scale=0.25, nsteps=4,
        quick_nodes=6, quick_scale=0.1, quick_nsteps=3,
    ),
    "deltawing": BenchSpec(
        "deltawing", "sp2", nodes=12, scale=0.15, nsteps=4,
        quick_nodes=8, quick_scale=0.05, quick_nsteps=3,
    ),
    # store keeps 16 nodes even in quick mode: the ejecting-store system
    # has 16 grids and the static partitioner needs >= 1 node per grid.
    "store": BenchSpec(
        "store", "sp2", nodes=16, scale=0.15, nsteps=5, f0=2.0,
        quick_nodes=16, quick_scale=0.05, quick_nsteps=3,
    ),
}


# ----------------------------------------------------------------------
# canonical JSON


def _jsonable(value: Any) -> Any:
    """Recursively coerce to canonical-JSON-safe types.

    numpy scalars become python numbers; non-finite floats become
    strings (``"inf"`` / ``"-inf"`` / ``"nan"``) so ``allow_nan=False``
    holds; tuples become lists."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool):
        return value
    if hasattr(value, "item") and callable(value.item):  # numpy scalar
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # "inf" / "-inf" / "nan"
    return value


def canonical_json(payload: dict) -> str:
    """Byte-stable serialisation: equal payloads -> equal bytes."""
    return (
        json.dumps(
            _jsonable(payload),
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
        + "\n"
    )


def config_sha(config: dict) -> str:
    """sha256 of the canonical config dict."""
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


# ----------------------------------------------------------------------
# the bench harness


def _resolve(
    case: str | dict[str, Any], quick: bool, grouping: str | None
) -> tuple[str, Any, dict[str, Any]]:
    """(name, case object, config dict) of a bench case name or a
    loaded scenario payload."""
    if isinstance(case, dict):
        from repro.offbody import build_offbody_case

        # The scenario payload itself is the config — its sha keys the
        # result.  "backend" dates from the measured passes this
        # harness once ran; it stays so existing shas do not move.
        config = {"scenario": case, "grouping": grouping, "backend": "sim"}
        return case["name"], build_offbody_case(case, grouping=grouping), config
    from repro.cases import build_case
    from repro.machine import machine_preset

    try:
        spec = BENCH_CASES[case]
    except KeyError:
        raise ValueError(
            f"unknown bench case {case!r}; choose from {sorted(BENCH_CASES)}"
        ) from None
    knobs = spec.knobs(quick)
    cfg = build_case(
        spec.case,
        machine=machine_preset(spec.machine, knobs["nodes"]),
        scale=knobs["scale"],
        nsteps=knobs["nsteps"],
        f0=spec.f0,
    )
    config = {
        "case": spec.case,
        "machine": spec.machine,
        **knobs,
        "f0": spec.f0,
        "total_gridpoints": cfg.total_gridpoints,
        "ngrids": len(cfg.grids),
    }
    return case, cfg, config


def bench_payload(
    case: str | dict[str, Any],
    quick: bool = False,
    trace_store: str | Path | None = None,
    grouping: str | None = None,
) -> dict[str, Any]:
    """Run one bench case; returns the full BENCH payload dict.

    ``case`` is a :data:`BENCH_CASES` name or a loaded off-body
    scenario payload (``grouping`` overrides its run block; the payload
    then carries a ``simulated.offbody`` block with per-epoch
    patch/grouping statistics).  The run streams its events through the
    trace store (:mod:`repro.obs.store`) — to ``trace_store`` if
    given, else a temporary directory — under the sanitizer, and the
    analytics (critical path, comm matrix, per-step ``trend`` block)
    come from the store-reconstructed view
    (:func:`repro.obs.perf.traced_run`).
    """
    from repro.core import run_summary
    from repro.obs.perf.comm_matrix import CommMatrix
    from repro.obs.perf.critical_path import analyze_critical_path
    from repro.obs.perf.traced import traced_run
    from repro.obs.perf.trends import trend_block
    from repro.offbody import OffBodyRunResult

    name, target, config = _resolve(case, quick, grouping)
    traced = traced_run(
        target,
        store_dir=trace_store,
        sanitize=True,
        meta={"case": name, "component": "bench"},
    )
    run = traced.run
    igbp = run.igbp_rollup()
    san_report = traced.sanitizer.report()

    simulated = run_summary(run)
    simulated["imbalance"]["f"] = [float(v) for v in igbp.f()]
    simulated.update({
        "critical_path": analyze_critical_path(
            traced.tracer, igbp=igbp
        ).to_dict(),
        "comm": CommMatrix.from_tracer(
            traced.tracer, nranks=run.nprocs
        ).to_dict(top_k=5),
        "trend": trend_block(traced.steps),
        "sanitizer": {
            "ok": san_report.ok,
            "counts": san_report.counts(),
            "messages_sent": san_report.messages_sent,
            "messages_received": san_report.messages_received,
            "wildcard_recvs": san_report.wildcard_recvs,
            "collectives": san_report.collectives,
        },
    })
    if isinstance(run, OffBodyRunResult):
        simulated["offbody"] = {
            "grouping": run.epochs[0].strategy if run.epochs else None,
            "signature_sha": config_sha(run.physics_signature()),
            "epochs": [e.summary() for e in run.epochs],
        }
    return {
        "schema": BENCH_SCHEMA,
        "case": name,
        "quick": quick and isinstance(case, str),
        "config": config,
        "config_sha": config_sha(config),
        "simulated": simulated,
    }


def write_bench(payload: dict, out_dir: str | Path) -> Path:
    """Write ``BENCH_<case>.json`` (canonical form) under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{payload['case']}.json"
    path.write_text(canonical_json(payload))
    return path
