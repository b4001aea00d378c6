"""``repro top``: live terminal view of a streaming trace store.

Tails a store directory that a running job (sim, mp, cluster, or
serve) is writing through :class:`~repro.obs.store.writer.StoreTracer`
and renders, per refresh:

* one row per rank — busy/wait seconds, busy fraction, the f(p)-style
  busy-imbalance factor (max-over-mean busy time, the time analogue of
  the paper's I(p)/Ibar), the rank's current phase, and a phase
  occupancy bar;
* the comm-matrix hot edges (top sender→receiver pairs by bytes);
* the most recent driver marks (epochs, rebalances, recoveries).

The aggregator is incremental — it consumes only the records that
became durable since the last poll (O(new records) per refresh, never
O(trace)) — and entirely deterministic for a given record stream, so
``--once`` snapshots are testable.
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.machine.metrics import PhaseRollup
from repro.obs.store.reader import TailReader, load_index
from repro.obs.tracer import (
    KIND_MARK,
    KIND_OP,
    KIND_PHASE,
    KIND_RECV,
    KIND_SEND,
)

__all__ = ["TopAggregator", "render_top", "run_top"]

#: ANSI clear-screen + home, used between live refreshes.
_CLEAR = "\x1b[2J\x1b[H"

#: How many of the latest driver marks the view keeps.
RECENT_MARKS = 4


class TopAggregator:
    """Incremental per-rank / per-edge aggregation of a record stream."""

    def __init__(self) -> None:
        self.records = 0
        self.t_end = 0.0
        #: Every op span, added into its (rank, phase) cell.
        self.rollup = PhaseRollup.empty(1)
        #: rank -> its current phase ("-" before its first phase mark).
        self.phase: dict[int, str] = {}
        # (src, dst) -> [messages, bytes]
        self.edges: dict[tuple[int, int], list[int]] = {}
        self.marks: deque[tuple[float, str, dict]] = deque(
            maxlen=RECENT_MARKS
        )
        self.sends = 0
        self.recvs = 0

    def feed(self, records: Iterable[tuple]) -> int:
        """Consume new records; returns how many were consumed."""
        n = 0
        for kind, fields in records:
            n += 1
            if kind == KIND_OP:
                self.rollup.add_span(*fields)
                self.phase.setdefault(fields[0], "-")
                self.t_end = max(self.t_end, fields[4])
            elif kind == KIND_PHASE:
                rank, t, name = fields
                self.phase[rank] = name
            elif kind == KIND_MARK:
                t, name, args = fields
                self.marks.append((t, name, args))
            elif kind == KIND_SEND:
                _t, src, dst, _tag, nbytes, _phase = fields
                edge = self.edges.setdefault((src, dst), [0, 0])
                edge[0] += 1
                edge[1] += nbytes
                self.sends += 1
            elif kind == KIND_RECV:
                self.recvs += 1
        self.records += n
        return n

    def seconds(self, rank: int) -> tuple[float, float]:
        """``rank``'s busy (compute + comm) and wait seconds."""
        cells = [self.rollup.cell(rank, p) for p in self.rollup.phases()]
        return sum(c.compute + c.comm for c in cells), sum(c.wait for c in cells)

    def imbalance(self) -> dict[int, float]:
        """Per-rank f(p): busy time over the mean busy time."""
        busies = {r: self.seconds(r)[0] for r in self.phase}
        total = sum(busies.values())
        if not busies or total <= 0:
            return {r: 1.0 for r in busies}
        mean = total / len(busies)
        return {r: b / mean for r, b in busies.items()}

    def hot_edges(self, top_k: int = 5) -> list[tuple[int, int, int, int]]:
        """Top (src, dst, messages, bytes) edges by bytes (stable order)."""
        ranked = sorted(
            self.edges.items(), key=lambda kv: (-kv[1][1], kv[0])
        )
        return [
            (src, dst, msgs, nbytes)
            for (src, dst), (msgs, nbytes) in ranked[:top_k]
        ]


def _phase_markers(phases: Iterable[str]) -> dict[str, str]:
    """Unique one-character marker per phase (initial letter preferred)."""
    markers: dict[str, str] = {}
    taken: set[str] = set()
    fallback = "0123456789*#@+%"
    for name in sorted(phases):
        char = next(
            (c.upper() for c in name if c.upper() not in taken), None
        )
        if char is None:
            char = next(c for c in fallback if c not in taken)
        markers[name] = char
        taken.add(char)
    return markers


def _bar(
    phase_time: dict[str, float], markers: dict[str, str], width: int
) -> str:
    """Occupancy bar: each phase gets slots proportional to its time."""
    total = sum(phase_time.values())
    if total <= 0 or width <= 0:
        return " " * width
    bar: list[str] = []
    for name in sorted(phase_time):
        slots = int(round(phase_time[name] / total * width))
        bar.extend(markers[name] * slots)
    return "".join(bar)[:width].ljust(width)


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return (
                f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
            )
        value /= 1024
    return f"{value:.1f}GB"  # pragma: no cover - unreachable


def render_top(
    agg: TopAggregator,
    index: dict[str, Any] | None = None,
    directory: str | Path = "",
    width: int = 80,
) -> str:
    """Render one snapshot of the aggregated state."""
    lines: list[str] = []
    step = "-"
    status = "running"
    clock = "virtual"
    if index is not None:
        clock = index.get("clock", "virtual")
        steps = index.get("steps", [])
        if steps:
            step = str(len(steps) - 1)
        if index.get("complete"):
            status = "complete"
    lines.append(
        f"repro top — {directory}  [{clock} clock, {agg.records} records, "
        f"step {step}, {status}]"
    )
    lines.append(
        f"t_end {agg.t_end:.4f}s   sends {agg.sends}   recvs {agg.recvs}"
    )
    lines.append("")
    bar_width = max(10, width - 52)
    lines.append(
        f"{'rank':>4} {'busy_s':>9} {'wait_s':>9} {'busy%':>6} {'f(p)':>6} "
        f"{'phase':<10} occupancy"
    )
    fp = agg.imbalance()
    markers = _phase_markers(agg.rollup.phases())
    for rank in sorted(agg.phase):
        busy, wait = agg.seconds(rank)
        total = busy + wait
        busy_pct = 100.0 * busy / total if total > 0 else 0.0
        phase_time = {p: agg.rollup.cell(rank, p).total for p in markers}
        bar = _bar(phase_time, markers, bar_width)
        lines.append(
            f"{rank:>4} {busy:>9.3f} {wait:>9.3f} "
            f"{busy_pct:>5.1f}% {fp.get(rank, 1.0):>6.2f} "
            f"{agg.phase[rank]:<10} [{bar}]"
        )
    if not agg.phase:
        lines.append("  (no rank activity yet)")
    if markers:
        lines.append(
            "      occupancy: "
            + "  ".join(f"{mk}={p}" for p, mk in sorted(markers.items()))
        )
    edges = agg.hot_edges()
    if edges:
        lines.append("")
        lines.append("hot edges (by bytes):")
        for src, dst, msgs, nbytes in edges:
            lines.append(
                f"  {src:>3} -> {dst:<3} {_fmt_bytes(nbytes):>10} "
                f"in {msgs} msgs"
            )
    if agg.marks:
        lines.append("")
        lines.append("recent marks:")
        for t, name, args in agg.marks:
            detail = " ".join(f"{k}={v}" for k, v in sorted(args.items()))
            lines.append(f"  {t:>10.4f}s  {name}" + (f"  {detail}" if detail else ""))
    return "\n".join(lines)


def _await_store(store: Path, wait: float) -> None:
    """Return once ``store`` exists (``wait`` = 0) or holds an index or
    an event file (within ``wait`` seconds); :class:`FileNotFoundError`
    otherwise."""
    if not wait:
        if not store.is_dir():
            raise FileNotFoundError(
                f"no trace store at {store} (start a producer with "
                f"--trace-store, or pass --wait to poll for one)"
            )
        return
    deadline = time.monotonic() + wait
    while not store.is_dir() or (
        load_index(store) is None and not any(store.glob("*.seg"))
    ):
        if time.monotonic() >= deadline:
            raise FileNotFoundError(
                f"no trace store appeared at {store} within {wait:.0f}s"
            )
        time.sleep(0.1)


def run_top(
    directory: str | Path,
    interval: float = 1.0,
    once: bool = False,
    width: int = 80,
    emit: Callable[[str], None] = print,
    max_refreshes: int | None = None,
    wait: float = 0.0,
) -> int:
    """Tail ``directory`` and render until the store completes.

    A store that does not exist yet is a :class:`FileNotFoundError`
    unless it appears within ``wait`` seconds (for racing a freshly
    launched producer).

    ``once`` polls whatever is durable right now, renders a single
    snapshot, and returns.  In loop mode the screen is cleared between
    refreshes and the loop ends when the index reports ``complete`` and
    no further records arrive (or on Ctrl-C).  ``max_refreshes`` bounds
    the loop for tests.
    """
    _await_store(Path(directory), wait)
    tail = TailReader(directory)
    agg = TopAggregator()
    refreshes = 0
    try:
        while True:
            fresh = tail.poll()
            agg.feed(fresh)
            index = tail.index
            frame = render_top(
                agg, index=index, directory=directory, width=width
            )
            if once:
                emit(frame)
                return 0
            emit(_CLEAR + frame)
            refreshes += 1
            done = (
                index is not None
                and index.get("complete")
                and not fresh
                and agg.records >= index.get("records", 0)
            )
            if done:
                return 0
            if max_refreshes is not None and refreshes >= max_refreshes:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        emit("")
        return 130
    except BrokenPipeError:
        # Downstream pager/head closed; silence the interpreter's
        # shutdown flush of the broken stdout and exit cleanly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
