"""Observability: per-rank phase tracing, rollups and exporters.

The paper's entire evaluation (Tables 1--5) is built from per-phase,
per-rank timing breakdowns: flow solve vs. grid motion vs. DCF3D
connectivity, received-IGBP counts I(p), and load-imbalance factors
f(p) = I(p)/Ibar.  This subpackage is the instrumentation layer that
produces those series from the simulated machine:

* :mod:`tracer` — span-event recording with a zero-cost disabled path
  (``tracer=None``); the scheduler emits one span
  per primitive (compute, message injection, blocked-receive wait,
  poll) tagged with rank, phase, virtual begin and end times, flops and
  bytes.  One log, two sinks: every recorder is an ``EventLog`` (one
  ordered ``(kind, fields)`` list), :class:`SpanTracer` reads it per
  kind and :class:`StoreTracer` drains it to disk; mp / cluster
  workers ship their log and the parent extends its tracer with it;
* :mod:`rollup` — the I(p) / f(p) series (:class:`IgbpRollup`)
  consumed by :mod:`repro.partition.dynamic_lb` and the per-step fold
  of a trace (:class:`StepRollup`); the per-rank/per-phase
  breakdown (:class:`PhaseRollup`, Table-4 style) is the engines' own
  accounting, :mod:`repro.machine.metrics`, re-exported here;
* :mod:`export` — Chrome ``trace_event`` JSON (loadable in
  ``chrome://tracing`` / Perfetto), CSV rollups, and an ASCII per-rank
  timeline rendered through :mod:`repro.core.ascii_plot`;
* :mod:`perf` — the performance observatory: critical-path and
  comm-matrix analytics over recorded traces, the ``repro bench``
  canonical-JSON harness and the ``repro trace-diff`` regression gate;
* :mod:`store` — the streaming trace store
  (:class:`StoreTracer` writing one append-only event file
  with an index, :func:`load_store` reconstructing the exact
  SpanTracer view) that lifts the in-memory cap on run length and
  feeds the live ``repro top`` view.

See ``docs/observability.md`` for the schema and reading guide.
"""

from repro.machine.metrics import PhaseCell, PhaseRollup
from repro.obs.tracer import SpanTracer
from repro.obs.rollup import IgbpRollup, StepRollup
from repro.obs.export import (
    ascii_timeline,
    chrome_trace,
    rollup_csv,
    write_chrome_trace,
    write_rollup_csv,
)
from repro.obs.store import StoreReader, StoreTracer, TailReader, load_store

__all__ = [
    "SpanTracer",
    "StoreTracer",
    "StoreReader",
    "TailReader",
    "load_store",
    "PhaseCell",
    "PhaseRollup",
    "IgbpRollup",
    "StepRollup",
    "chrome_trace",
    "write_chrome_trace",
    "rollup_csv",
    "write_rollup_csv",
    "ascii_timeline",
]
