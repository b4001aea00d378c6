"""Job specifications and deterministic result payloads.

A *job* is one complete OVERFLOW-D1 case execution described entirely
by data: case name, machine preset, node count, scale, step count, f0
and execution backend.  The description is canonical — its
:func:`repro.obs.perf.bench.config_sha` is the job's identity, the key
the result cache and the request-coalescing map use.  Two submissions
with the same knobs are *the same job* no matter how their dicts were
ordered or which client sent them.

:func:`run_job` is the one execution path: the daemon's pool workers
and direct in-process callers all go through it, so a deterministic (``sim``-backend) job produces
byte-identical canonical payloads whether it ran direct, through a cold
server, or was answered from the cache (the cache stores the literal
bytes).  Payloads carry only modeled quantities for ``sim`` jobs —
no wall clocks, no timestamps — which is what makes the bytes stable.

A job carries no test hooks: tests that need a crashing, slow or
failing job patch ``repro.serve.pool.run_job_bytes`` before the
workers fork and key the fault on a sentinel ``f0``, which is part of the sha,
so a faulty job can never alias a clean one in the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.obs.perf.bench import canonical_json, config_sha

__all__ = [
    "SERVE_RESULT_SCHEMA",
    "JobSpec",
    "JobSpecError",
    "run_job",
    "run_job_bytes",
]

#: Version tag of the result-payload layout.
SERVE_RESULT_SCHEMA = "repro-serve-result/1"

#: The knobs a job dict may carry.
_FIELDS = ("case", "machine", "nodes", "scale", "nsteps", "f0", "backend")


class JobSpecError(ValueError):
    """A job description is malformed (bad field, unknown case, ...)."""


def _parse_float(value: Any, name: str) -> float:
    """Accept numbers plus the canonical-JSON spellings of non-finite
    floats (``"inf"`` / ``"-inf"`` / ``"nan"``) so a spec survives the
    wire round trip sha-intact."""
    if isinstance(value, bool):
        raise JobSpecError(f"{name} must be a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str) and value in ("inf", "-inf", "nan"):
        return float(value)
    raise JobSpecError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class JobSpec:
    """One simulation job, fully described by data."""

    case: str
    machine: str = "sp2"
    nodes: int = 4
    scale: float = 0.1
    nsteps: int = 2
    f0: float = math.inf
    backend: str = "sim"

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise JobSpecError(f"nodes must be >= 1, got {self.nodes}")
        if self.nsteps < 1:
            raise JobSpecError(f"nsteps must be >= 1, got {self.nsteps}")
        if not (self.scale > 0):
            raise JobSpecError(f"scale must be > 0, got {self.scale}")
        if not (self.f0 > 0):
            raise JobSpecError(f"f0 must be > 0, got {self.f0}")

    @property
    def deterministic(self) -> bool:
        """Whether this job's payload bytes are reproducible (and hence
        cacheable): true for the ``sim`` backend, false for measured
        engines like ``mp``."""
        return self.backend == "sim"

    def config(self) -> dict[str, Any]:
        """The canonical knob dict — what :meth:`sha` hashes."""
        return {
            "case": self.case,
            "machine": self.machine,
            "nodes": int(self.nodes),
            "scale": float(self.scale),
            "nsteps": int(self.nsteps),
            "f0": float(self.f0),
            "backend": self.backend,
        }

    def sha(self) -> str:
        """Content identity: sha256 of the canonical config dict."""
        return config_sha(self.config())

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe form (non-finite floats as canonical strings)."""
        out = self.config()
        if not math.isfinite(out["f0"]):
            out["f0"] = repr(out["f0"])
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "JobSpec":
        """Build a validated spec from an untrusted wire dict.

        Unknown keys are rejected (a typo must not silently mint a new
        job identity), and the case and machine names are checked
        against the registries so a bad submission fails at the
        protocol boundary, not inside a pool worker.
        """
        if not isinstance(data, dict):
            raise JobSpecError(f"job must be an object, got {type(data).__name__}")
        unknown = set(data) - set(_FIELDS)
        if unknown:
            raise JobSpecError(f"unknown job field(s): {sorted(unknown)}")
        if "case" not in data or not isinstance(data["case"], str):
            raise JobSpecError("job needs a string 'case' field")
        machine = data.get("machine", "sp2")
        backend = data.get("backend", "sim")
        if not isinstance(machine, str) or not isinstance(backend, str):
            raise JobSpecError("'machine' and 'backend' must be strings")
        nodes = data.get("nodes", 4)
        nsteps = data.get("nsteps", 2)
        if isinstance(nodes, bool) or not isinstance(nodes, int):
            raise JobSpecError(f"nodes must be an integer, got {nodes!r}")
        if isinstance(nsteps, bool) or not isinstance(nsteps, int):
            raise JobSpecError(f"nsteps must be an integer, got {nsteps!r}")
        spec = cls(
            case=data["case"],
            machine=machine,
            nodes=nodes,
            scale=_parse_float(data.get("scale", 0.1), "scale"),
            nsteps=nsteps,
            f0=_parse_float(data.get("f0", math.inf), "f0"),
            backend=backend,
        )
        spec.check_runnable()
        return spec

    def check_runnable(self) -> None:
        """Raise :class:`JobSpecError` for names no worker could run.

        A job names one of the registered cases: it carries scalar
        knobs (scale/nsteps/f0), not a scenario file.
        """
        from repro.backend import BACKENDS
        from repro.cases import case_names
        from repro.machine import machine_preset

        runnable = case_names()
        if self.case not in runnable:
            raise JobSpecError(
                f"unknown case {self.case!r}; choose from {list(runnable)}"
            )
        try:
            machine_preset(self.machine, self.nodes)
        except ValueError as exc:
            raise JobSpecError(str(exc)) from None
        if self.backend not in BACKENDS:
            raise JobSpecError(
                f"unknown backend {self.backend!r}; choose from "
                f"{sorted(BACKENDS)}"
            )


#: Backends whose start-up cost is worth amortising across jobs.  A
#: cluster engine owns a pool of node daemons (TCP handshakes, forked
#: workers); tearing that down after every served job would turn the
#: warm-pool daemon into a cold-start machine.  Keyed by backend name —
#: each pool worker process keeps its own warm engine.
_WARM_BACKENDS: dict[str, Any] = {}


def _job_backend(name: str) -> Any:
    """Build (or reuse) the execution engine for one served job.

    ``sim``/``mp`` engines are cheap throwaways; ``cluster`` engines are
    cached per worker process so the node pool survives between jobs —
    ``repro serve`` then dispatches onto a running cluster instead of
    spawning one per submission.
    """
    from repro.backend import get_backend

    if name != "cluster":
        return get_backend(name)
    engine = _WARM_BACKENDS.get(name)
    if engine is None:
        engine = _WARM_BACKENDS[name] = get_backend(name)
    return engine


def close_warm_backends() -> None:
    """Release any warm engines this process holds (node daemons exit
    on the shutdown frame instead of seeing a connection reset)."""
    while _WARM_BACKENDS:
        _, engine = _WARM_BACKENDS.popitem()
        try:
            engine.close()
        except Exception:  # noqa: BLE001 - teardown is best-effort
            pass


def run_job(spec: JobSpec) -> dict:
    """Execute one job; returns the full result payload dict.

    The payload's ``result`` section contains only modeled quantities
    for ``sim`` jobs, so it is deterministic; ``deterministic: false``
    marks measured (``mp``) payloads as host data.
    """
    from repro.cases import build_case
    from repro.core import build_driver, run_summary
    from repro.machine import machine_preset

    spec.check_runnable()
    cfg = build_case(
        spec.case,
        machine=machine_preset(spec.machine, spec.nodes),
        scale=spec.scale,
        nsteps=spec.nsteps,
        f0=spec.f0,
    )
    run = build_driver(cfg, backend=_job_backend(spec.backend)).run()
    result = run_summary(run)
    result["total_gridpoints"] = cfg.total_gridpoints
    result["ngrids"] = len(cfg.grids)
    return {
        "schema": SERVE_RESULT_SCHEMA,
        "job": spec.config(),
        "job_sha": spec.sha(),
        "deterministic": spec.deterministic,
        "result": result,
    }


def run_job_bytes(spec: JobSpec) -> bytes:
    """Canonical payload bytes — the unit of caching and byte identity."""
    return canonical_json(run_job(spec)).encode()
