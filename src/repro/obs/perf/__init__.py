"""Performance observatory: trace analytics over recorded runs.

The paper's core evidence is performance accounting — per-phase
timings, flow vs. connectivity imbalance, and the received-IGBP
distribution f(p) = I(p)/Ibar that drives Algorithm 2.  This
subpackage turns the raw event streams of
:class:`repro.obs.tracer.SpanTracer` into that evidence:

* :mod:`critical_path` — per-timestep longest chain through the
  flow-solve / motion / connectivity phases, with per-rank slack
  attributed to compute vs. comm vs. barrier-wait and the Table-style
  imbalance breakdown (:class:`CriticalPathReport`);
* :mod:`comm_matrix` — ranks x ranks bytes/messages per phase with
  hot-edge top-k (:class:`CommMatrix`);
* :mod:`bench` — the ``repro bench`` harness: runs the table cases
  through the analyzers and emits schema-versioned, canonical-JSON
  ``BENCH_<case>.json`` payloads;
* :mod:`traced` — :func:`traced_run`, the one "recorder -> sanitizer
  -> driver -> store read-back" pipeline behind ``repro trace``,
  ``repro run --trace-store`` and ``repro bench``;
* :mod:`diff` — ``repro trace-diff``: classifies per-phase/per-metric
  deltas between two BENCH payloads with a tolerance, for the CI
  perf-regression gate;
* :mod:`trends` — per-step series from the trace-store index
  (phase seconds, busy/wait, f(p) imbalance) as ASCII charts, CSV,
  and the deterministic ``trend`` block of a BENCH payload.

See ``docs/observability.md`` for the BENCH JSON schema.
"""

from repro.obs.perf.comm_matrix import CommMatrix
from repro.obs.perf.critical_path import CriticalPathReport, analyze_critical_path
from repro.obs.perf.bench import (
    BENCH_SCHEMA,
    BENCH_CASES,
    bench_payload,
    canonical_json,
    write_bench,
)
from repro.obs.perf.diff import DiffReport, diff_bench, diff_files
from repro.obs.perf.traced import TracedRun, traced_run
from repro.obs.perf.trends import (
    step_series,
    trend_block,
    trend_chart,
    trend_csv,
    write_trend_csv,
)

__all__ = [
    "CommMatrix",
    "CriticalPathReport",
    "analyze_critical_path",
    "BENCH_SCHEMA",
    "BENCH_CASES",
    "bench_payload",
    "canonical_json",
    "write_bench",
    "DiffReport",
    "diff_bench",
    "diff_files",
    "TracedRun",
    "traced_run",
    "step_series",
    "trend_block",
    "trend_chart",
    "trend_csv",
    "write_trend_csv",
]
