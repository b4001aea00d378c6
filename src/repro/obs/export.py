"""Exporters: Chrome trace_event JSON, CSV rollups, ASCII timelines.

* :func:`chrome_trace` — the ``trace_event`` format understood by
  ``chrome://tracing`` and Perfetto: one complete ("X") event per
  primitive span (name = kind, category = phase), one "X" event per
  contiguous phase band on a synthetic ``phases`` track, cumulative
  counter ("C") series of per-phase comm-matrix traffic, plus instant
  ("i") events for driver marks.  Timestamps are virtual microseconds.
* :func:`rollup_csv` — per-rank, per-phase rows of a
  :class:`repro.machine.metrics.PhaseRollup`; lands under
  ``benchmarks/results/`` so table regenerations and traces live in
  one place.
* :func:`ascii_timeline` — per-rank timeline rendered through
  :func:`repro.core.ascii_plot.timeline_chart`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.machine.metrics import PhaseRollup
from repro.obs.tracer import SpanTracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "rollup_csv",
    "write_rollup_csv",
    "ascii_timeline",
]

_US = 1.0e6  # virtual seconds -> trace_event microseconds


def chrome_trace(tracer: SpanTracer) -> str:
    """Serialise a trace to Chrome ``trace_event`` JSON (object format)."""
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "simulated machine"},
        }
    ]
    for rank in range(tracer.nranks):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "args": {"name": f"rank {rank}"},
            }
        )
    # Phase bands on a dedicated track per rank (pid 1) so the op spans
    # (pid 0) stay readable underneath.
    for rank, spans in sorted(tracer.phase_spans().items()):
        for t0, t1, phase in spans:
            events.append(
                {
                    "name": phase,
                    "cat": "phase",
                    "ph": "X",
                    "ts": t0 * _US,
                    "dur": (t1 - t0) * _US,
                    "pid": 1,
                    "tid": rank,
                }
            )
    for rank, phase, kind, t0, t1, flops, nbytes in tracer.ops:
        ev: dict[str, Any] = {
            "name": kind,
            "cat": phase,
            "ph": "X",
            "ts": t0 * _US,
            "dur": (t1 - t0) * _US,
            "pid": 0,
            "tid": rank,
        }
        args: dict[str, Any] = {}
        if flops:
            args["flops"] = flops
        if nbytes:
            args["bytes"] = nbytes
        if args:
            ev["args"] = args
        events.append(ev)
    # Cumulative comm-matrix counters (pid 2): one "C" series per phase
    # tracking bytes and message count over time, so the comm volume the
    # analytics comm_matrix() reports is visible *in* the timeline —
    # slope changes line up with the op spans that caused them.
    if tracer.sends:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 2,
                "tid": 0,
                "args": {"name": "comm counters"},
            }
        )
        totals: dict[str, list[int]] = {}
        for t, _src, _dst, _tag, nbytes, phase in sorted(tracer.sends):
            cum = totals.setdefault(phase, [0, 0])
            cum[0] += int(nbytes)
            cum[1] += 1
            events.append(
                {
                    "name": f"comm {phase}",
                    "cat": "comm",
                    "ph": "C",
                    "ts": t * _US,
                    "pid": 2,
                    "tid": 0,
                    "args": {"bytes": cum[0], "msgs": cum[1]},
                }
            )
    for t, name, args in tracer.marks:
        events.append(
            {
                "name": name,
                "cat": "driver",
                "ph": "i",
                "s": "g",  # global-scope instant
                "ts": t * _US,
                "pid": 0,
                "tid": 0,
                "args": args,
            }
        )
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    return json.dumps(doc)


def write_chrome_trace(tracer: SpanTracer, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(chrome_trace(tracer) + "\n")
    return path


def rollup_csv(rollup: PhaseRollup) -> str:
    """Per-rank, per-phase CSV rows of one :class:`PhaseRollup`."""
    lines = ["rank,phase,compute_s,comm_s,wait_s,total_s,flops,bytes,events"]
    for rank in range(rollup.nranks):
        for phase in rollup.phases():
            c = rollup.cell(rank, phase)
            lines.append(
                f"{rank},{phase},{c.compute:.9g},{c.comm:.9g},"
                f"{c.wait:.9g},{c.total:.9g},{c.flops:.9g},"
                f"{c.nbytes},{c.events}"
            )
    return "\n".join(lines)


def write_rollup_csv(rollup: PhaseRollup, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(rollup_csv(rollup) + "\n")
    return path


def ascii_timeline(tracer: SpanTracer, width: int = 72) -> str:
    """Per-rank phase timeline (one row per rank, one char per slot)."""
    # Imported here: repro.core pulls in the drivers, which import
    # repro.obs — a module-level import would be circular.
    from repro.core.ascii_plot import timeline_chart

    return timeline_chart(
        tracer.phase_spans(),
        t_end=tracer.t_end,
        width=width,
        title="per-rank phase timeline (virtual time)",
    )
