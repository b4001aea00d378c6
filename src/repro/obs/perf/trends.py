"""Per-step trend analytics from the trace-store index.

The paper's tables aggregate whole runs; its *dynamics* — connectivity
cost spiking as bodies cross grid boundaries, imbalance drifting until
Algorithm 2 repartitions — only show up step by step.  The trace
store's index (:mod:`repro.obs.store.writer`) already carries, per
step, each rank's compute / comm / wait seconds per phase; this module
turns those into:

* :func:`step_series` — deterministic per-step series (phase seconds,
  busy/wait seconds, and the time-analogue of the paper's f(p)
  imbalance factor: max over ranks of busy time divided by the mean);
* :func:`trend_chart` — ASCII trend plots (phase seconds per step, and
  imbalance per step) via :func:`repro.core.ascii_plot.line_chart`;
* :func:`trend_csv` / :func:`write_trend_csv` — a flat CSV of the same
  series for external tooling;
* :func:`trend_block` — the compact deterministic summary embedded in
  ``repro bench``'s ``simulated`` section (and therefore compared by
  the ``trace-diff`` CI gate).

Everything here is computed from virtual-time rollups, so two runs of
the same configuration produce identical output byte for byte.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Any

__all__ = [
    "step_series",
    "trend_block",
    "trend_chart",
    "trend_csv",
    "write_trend_csv",
]


def step_series(steps: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate index step entries into per-step series.

    ``steps`` is the ``steps`` list of a store index (or
    :attr:`repro.obs.store.StoreReader.steps`); each row's ``cells`` map
    rank -> phase -> ``[compute, comm, wait]`` seconds.  Busy time is
    compute plus comm; wait is the time blocked in a receive.  Steps
    with no recorded ops (possible at a crash boundary) contribute
    zeros.
    """
    phases = sorted({
        p for s in steps for row in s["cells"].values() for p in row
    })
    series: dict[str, Any] = {
        "steps": len(steps),
        "phases": phases,
        "phase_total_s": {p: [] for p in phases},
        "phase_max_s": {p: [] for p in phases},
        "busy_s": [],
        "wait_s": [],
        "imbalance": [],
        "span_s": [],
    }
    for entry in steps:
        rows = entry["cells"].values()
        for p in phases:
            per_rank = [sum(row[p]) for row in rows if p in row]
            series["phase_total_s"][p].append(sum(per_rank))
            series["phase_max_s"][p].append(max(per_rank, default=0.0))
        busy_by_rank = [
            sum(cell[0] + cell[1] for cell in row.values()) for row in rows
        ]
        busy = sum(busy_by_rank)
        series["busy_s"].append(busy)
        series["wait_s"].append(
            sum(sum(cell[2] for cell in row.values()) for row in rows)
        )
        mean = busy / len(busy_by_rank) if busy_by_rank else 0.0
        series["imbalance"].append(
            max(busy_by_rank) / mean if mean > 0 else 1.0
        )
        t0, t1 = entry["t0"], entry["t1"]  # None when the step has no op
        series["span_s"].append(t1 - t0 if t0 is not None else 0.0)
    return series


def trend_block(steps: list[dict[str, Any]]) -> dict[str, Any]:
    """The deterministic trend summary for a BENCH payload."""
    series = step_series(steps)
    return {
        "steps": series["steps"],
        "phase_total_s": series["phase_total_s"],
        "imbalance": series["imbalance"],
        "imbalance_max": max(series["imbalance"], default=1.0),
        "busy_s": series["busy_s"],
        "wait_s": series["wait_s"],
    }


def trend_chart(
    series: dict[str, Any], width: int = 64, height: int = 12
) -> str:
    """ASCII trend plots: per-phase seconds per step, then imbalance."""
    from repro.core.ascii_plot import line_chart

    nsteps = series["steps"]
    if nsteps == 0:
        return "(no steps recorded)"
    charts = []
    phase_pts = {
        p: [(float(i), v) for i, v in enumerate(series["phase_total_s"][p])]
        for p in series["phases"]
        if any(series["phase_total_s"][p])
    }
    if phase_pts:
        charts.append(
            line_chart(
                phase_pts,
                width=width,
                height=height,
                title="per-step phase time",
                xlabel="step",
                ylabel="seconds (all ranks)",
            )
        )
    charts.append(
        line_chart(
            {"f(p)": [(float(i), v) for i, v in enumerate(series["imbalance"])]},
            width=width,
            height=max(6, height // 2),
            title="per-step busy imbalance (max/mean)",
            xlabel="step",
            ylabel="imbalance factor",
        )
    )
    return "\n\n".join(charts)


def trend_csv(steps: list[dict[str, Any]]) -> str:
    """Flat CSV of the per-step series (one row per step)."""
    import csv

    series = step_series(steps)
    phases = series["phases"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["step", "span_s", "busy_s", "wait_s", "imbalance"]
        + [f"total_{p}_s" for p in phases]
        + [f"max_{p}_s" for p in phases]
    )
    for i in range(series["steps"]):
        writer.writerow(
            [
                i,
                f"{series['span_s'][i]:.9g}",
                f"{series['busy_s'][i]:.9g}",
                f"{series['wait_s'][i]:.9g}",
                f"{series['imbalance'][i]:.9g}",
            ]
            + [f"{series['phase_total_s'][p][i]:.9g}" for p in phases]
            + [f"{series['phase_max_s'][p][i]:.9g}" for p in phases]
        )
    return buf.getvalue()


def write_trend_csv(steps: list[dict[str, Any]], path: str | Path) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(trend_csv(steps), encoding="utf-8")
    return out
