"""``repro bench``: canonical, schema-versioned benchmark payloads.

Runs the table-reproduction scenarios (the same cases
``benchmarks/test_table*`` sweep) through the full observability stack
— span tracer, sanitizer, critical-path analyzer, comm matrix — and
emits one ``BENCH_<case>.json`` per case:

* the ``simulated`` section is **deterministic**: virtual elapsed time,
  per-phase breakdown, imbalance metrics (including the paper's
  f(p) = I(p)/Ibar), critical-path chain, comm-matrix totals and the
  sanitizer verdict.  Two runs of the same case on the same code emit
  byte-identical canonical JSON for this section — that is what
  ``repro trace-diff`` and the CI perf gate compare.
* the ``host`` section is **nondeterministic**: wall-clock medians
  (``benchmarks/perf`` is the host-time benchmark).  trace-diff ignores
  it.  With ``backend="mp"`` it additionally gains a ``measured`` block:
  the same Table-1/3/4-shape numbers (time/step, Mflops/node, %DCF3D)
  re-measured on real ``multiprocessing`` ranks with wall clocks —
  printed next to the modeled ones, never compared by the CI gate.

Canonical JSON: ``sort_keys=True``, ``separators=(",", ":")``, one
trailing newline, ``allow_nan=False`` (non-finite values are stringed),
so byte equality == semantic equality.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_CASES",
    "BenchSpec",
    "bench_payload",
    "canonical_json",
    "config_sha",
    "run_bench",
    "write_bench",
]

#: Version tag of the BENCH payload layout.  Bump on breaking changes;
#: ``trace-diff`` refuses to compare payloads across schema versions.
#: v2: the final repeat runs through the streaming segment store and
#: the ``simulated`` section gains a per-step ``trend`` block.
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


def _build_config(spec: BenchSpec, quick: bool) -> tuple[Any, dict[str, Any]]:
    from repro.cases import build_case
    from repro.machine import MACHINE_PRESETS

    knobs = spec.knobs(quick)
    machine = MACHINE_PRESETS[spec.machine](nodes=knobs["nodes"])
    cfg = build_case(
        spec.case,
        machine=machine,
        scale=knobs["scale"],
        nsteps=knobs["nsteps"],
        f0=spec.f0,
    )
    config_dict = {
        "case": spec.case,
        "machine": spec.machine,
        "nodes": knobs["nodes"],
        "scale": knobs["scale"],
        "nsteps": knobs["nsteps"],
        "f0": spec.f0,
        "total_gridpoints": cfg.total_gridpoints,
        "ngrids": len(cfg.grids),
    }
    return cfg, config_dict


def bench_payload(
    case: str,
    quick: bool = False,
    repeats: int = 3,
    backend: str = "sim",
    trace_store: str | Path | None = None,
) -> dict:
    """Run one bench case; returns the full BENCH payload dict.

    ``repeats`` runs measure wall time (median reported); every repeat
    must produce the identical simulated elapsed time or a
    ``RuntimeError`` flags the determinism violation.  The final repeat
    streams its events through the segment store
    (:mod:`repro.obs.store`) — to ``trace_store`` if given, else a
    temporary directory — and the analytics (critical path, comm
    matrix, per-step ``trend`` block) come from the store-reconstructed
    view, which is byte-identical to the in-memory tracer by
    construction.

    ``backend`` selects an *additional* measured pass: the canonical
    ``simulated`` section always comes from the ``sim`` backend (it is
    what the CI perf gate compares), but ``backend="mp"`` re-runs the
    case on real multiprocessing ranks and lands measured time/step,
    Mflops/node and %DCF3D under ``host["measured"]`` — including an
    ``igbp_matches_simulated`` physics cross-check.
    """
    try:
        spec = BENCH_CASES[case]
    except KeyError:
        raise ValueError(
            f"unknown bench case {case!r}; choose from {sorted(BENCH_CASES)}"
        )
    return _payload(
        case, lambda: _build_config(spec, quick), quick, repeats,
        backend, trace_store,
    )


def scenario_bench_payload(
    scenario: dict[str, Any],
    repeats: int = 1,
    backend: str = "sim",
    grouping: str | None = None,
) -> dict[str, Any]:
    """BENCH payload for a generated off-body scenario.

    The same payload as :func:`bench_payload` (so ``trace-diff``
    applies unchanged) plus a ``simulated.offbody`` block with
    per-epoch patch/grouping statistics.  The scenario payload itself
    is the config — its sha keys the result.
    """
    from repro.offbody import build_offbody_case

    config = {"scenario": scenario, "grouping": grouping, "backend": backend}
    return _payload(
        scenario["name"],
        lambda: (build_offbody_case(scenario, grouping=grouping), config),
        False, repeats, backend, None,
    )


def _physics(run: Any) -> Any:
    """What a measured pass must reproduce exactly: the off-body
    physics signature, else the accumulated per-rank IGBP counts."""
    from repro.offbody import OffBodyRunResult

    if isinstance(run, OffBodyRunResult):
        return run.physics_signature()
    return [int(v) for v in run.igbp_rollup().accumulated()]


def _payload(
    case: str,
    build: Callable[[], tuple[Any, dict[str, Any]]],
    quick: bool,
    repeats: int,
    backend: str,
    trace_store: str | Path | None,
) -> dict[str, Any]:
    """The BENCH payload of whatever case object ``build`` returns
    (with its config dict), near-body and off-body alike."""
    import tempfile

    from repro.analysis import Sanitizer
    from repro.core import build_driver, run_summary
    from repro.obs import SpanTracer
    from repro.obs.perf.comm_matrix import CommMatrix
    from repro.obs.perf.critical_path import analyze_critical_path
    from repro.obs.perf.trends import trend_block
    from repro.obs.store import StoreReader, StoreTracer
    from repro.offbody import OffBodyRunResult

    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    walls: list[float] = []
    elapsed_seen: set[float] = set()
    sanitizer = run = None
    config_dict: dict[str, Any] = {}
    tmp_store = None
    if trace_store is None:
        tmp_store = tempfile.TemporaryDirectory(prefix="repro-bench-store-")
        store_dir = Path(tmp_store.name)
    else:
        store_dir = Path(trace_store)
    try:
        for i in range(repeats):
            target, config_dict = build()
            final = i == repeats - 1
            tracer: Any = (
                StoreTracer(
                    store_dir,
                    meta={"case": case, "component": "bench"},
                    fresh=True,
                )
                if final
                else SpanTracer()
            )
            sanitizer = Sanitizer(tracer=tracer)
            t0 = time.perf_counter()
            run = build_driver(target, tracer=tracer, sanitizer=sanitizer).run()
            walls.append(time.perf_counter() - t0)
            elapsed_seen.add(run.elapsed)
            if final:
                tracer.close()
        # repeats >= 1 was validated above, so the loop body ran.
        assert sanitizer is not None and run is not None
        if len(elapsed_seen) != 1:  # pragma: no cover - determinism guard
            raise RuntimeError(
                f"simulated elapsed time varied across repeats: "
                f"{sorted(elapsed_seen)}"
            )
        reader = StoreReader(store_dir)
        tracer = reader.to_tracer()
        trend = trend_block(reader.steps)
    finally:
        if tmp_store is not None:
            tmp_store.cleanup()

    igbp = run.igbp_rollup()
    cp = analyze_critical_path(tracer, igbp=igbp)
    comm = CommMatrix.from_tracer(tracer, nranks=run.nprocs)
    san_report = sanitizer.report()

    simulated = run_summary(run)
    simulated["imbalance"]["f"] = [float(v) for v in igbp.f()]
    simulated.update({
        "critical_path": cp.to_dict(),
        "comm": comm.to_dict(top_k=5),
        "trend": trend,
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
            "epochs": [
                {
                    "first_step": e.first_step,
                    "npatches": e.npatches,
                    "created": e.created,
                    "destroyed": e.destroyed,
                    "cut_points": e.cut_points,
                    "cut_edges": e.cut_edges,
                    "intra_edges": e.intra_edges,
                    "balance_tau": e.balance_tau,
                }
                for e in run.epochs
            ],
        }
    host: dict[str, Any] = {
        "repeats": repeats,
        "wall_s_median": statistics.median(walls),
        "wall_s_all": walls,
    }
    if backend not in (None, "sim"):
        host["measured"] = _measured_section(build, repeats, backend, run)

    return {
        "schema": BENCH_SCHEMA,
        "case": case,
        "quick": quick,
        "config": config_dict,
        "config_sha": config_sha(config_dict),
        "simulated": simulated,
        "host": host,
    }


def _measured_section(
    build: Callable[[], tuple[Any, dict[str, Any]]],
    repeats: int,
    backend: str,
    sim_run: Any,
) -> dict:
    """Re-run the case on a measured backend; host-section numbers.

    Wall elapsed varies run to run (median over ``repeats``); the
    physics must not — ``igbp_matches_simulated`` records whether the
    measured run reproduced the simulated run's :func:`_physics`
    exactly.
    """
    from repro.backend import get_backend
    from repro.core import build_driver

    engine = get_backend(backend)
    elapsed_all: list[float] = []
    wall_all: list[float] = []
    mrun = None
    try:
        # Repeats share one engine: the cluster backend's node pool
        # stays warm across them (and is shut down on the way out).
        for _ in range(repeats):
            target, _config = build()
            t0 = time.perf_counter()
            mrun = build_driver(target, backend=engine).run()
            wall_all.append(time.perf_counter() - t0)
            elapsed_all.append(mrun.elapsed)
    finally:
        engine.close()
    assert mrun is not None  # repeats >= 1 (validated by the caller)
    return {
        "backend": engine.name,
        "repeats": repeats,
        # Table-1/3/4-shape numbers, measured (last repeat's run):
        "elapsed_s_median": statistics.median(elapsed_all),
        "elapsed_s_all": elapsed_all,
        "time_per_step_s": mrun.time_per_step,
        "mflops_per_node": mrun.mflops_per_node,
        "pct_dcf3d": mrun.pct_dcf3d,
        "wall_s_all": wall_all,
        # Physics cross-check against the canonical simulated pass:
        "igbp_matches_simulated": _physics(mrun) == _physics(sim_run),
    }


def write_bench(payload: dict, out_dir: str | Path) -> Path:
    """Write ``BENCH_<case>.json`` (canonical form) under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{payload['case']}.json"
    path.write_text(canonical_json(payload))
    return path


def run_bench(
    case: str,
    out_dir: str | Path,
    quick: bool = False,
    repeats: int = 3,
    backend: str = "sim",
    trace_store: str | Path | None = None,
) -> tuple[dict, Path]:
    """Run one case and persist its payload; returns (payload, path)."""
    payload = bench_payload(
        case,
        quick=quick,
        repeats=repeats,
        backend=backend,
        trace_store=trace_store,
    )
    return payload, write_bench(payload, out_dir)
