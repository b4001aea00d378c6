"""StoreTracer: the streaming counterpart of SpanTracer.

An :class:`repro.obs.tracer.EventLog` like every recorder, so every
producer — the simulated scheduler, the mp/cluster parent extending it
with its workers' logs, serve's per-job tracer — works unchanged.
Instead of keeping the log it drains it, in recording order, to one
series of segment files (:mod:`repro.obs.store.segment`) as framed
binary records.  Memory is bounded by one flush buffer plus at most
:data:`DRAIN_EVENTS` pending events, regardless of run length.

A record's position in the series is its place in the recording, so a
reader that reads the segments in order recovers the exact order
SpanTracer would have recorded — which is what makes the reconstructed
view (and everything exported from it) byte-identical to the in-memory
path.

The writer also maintains the **segment index** (``index.json``): the
segment list, per-step start positions, and per-step rollups of
phase/kind busy time per rank.  Steps are detected from phase switches
— a rank entering ``step_phase`` (default ``"overflow"``, the first
phase of every solver step) starts its next step.  The index is
rewritten atomically on :meth:`flush`, :meth:`advance` and
:meth:`close`; readers never need it for correctness (segments are
self-describing) but use it for per-step analytics and trend plots.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any

from repro.obs.store.segment import (
    DEFAULT_FLUSH_BYTES,
    DEFAULT_SEGMENT_BYTES,
    SegmentWriter,
)
from repro.obs.tracer import KIND_OP, KIND_PHASE, EventLog
from repro.obs.tracer import event_ranks, shifted

__all__ = ["StoreTracer", "INDEX_NAME", "STORE_FORMAT"]

#: File name of the segment index inside a store directory.
INDEX_NAME = "index.json"

#: Format tag written to (and checked from) the index.
STORE_FORMAT = "repro-trace-store/3"

#: Default phase name whose entry starts a new solver step.
DEFAULT_STEP_PHASE = "overflow"

#: Pending events that force a drain to the flush buffer.
DRAIN_EVENTS = 1024


class StoreTracer(EventLog):
    """Streaming tracer writing a segment store.

    Recorded events wait in ``events``, without the trace offset, until
    a drain writes them: at :meth:`flush`, :meth:`advance`,
    :meth:`close`, every ``flush_every`` records and whenever
    :data:`DRAIN_EVENTS` are pending.  Every drain precedes an offset
    change, so one offset covers the whole batch.

    Parameters
    ----------
    directory:
        Store directory (created if missing).  With ``fresh=True`` any
        store-owned files already there (``*.seg``, the index)
        are removed first; otherwise their presence is an error — a
        store is append-only within one run, never across runs.
    segment_bytes / flush_bytes:
        Rotation size per segment file and flush threshold of the
        buffer (see :class:`SegmentWriter`).
    step_phase:
        Phase name that opens a new solver step on each rank.
    meta:
        Optional JSON-serialisable dict stored verbatim in the index
        (case name, backend, nranks requested, ...).
    flush_every:
        When > 0, flush the buffer and rewrite the index every that
        many records — the knob long-lived producers (``repro serve``)
        use so a live ``repro top`` sees progress without waiting for
        an epoch boundary.  0 (default) flushes only on
        :meth:`advance`, :meth:`flush` and :meth:`close` plus the
        buffer's byte threshold.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        flush_bytes: int = DEFAULT_FLUSH_BYTES,
        step_phase: str = DEFAULT_STEP_PHASE,
        meta: dict[str, Any] | None = None,
        fresh: bool = False,
        flush_every: int = 0,
    ) -> None:
        super().__init__()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        existing = sorted(
            p.name
            for p in self.directory.iterdir()
            if p.name == INDEX_NAME or p.name.endswith(".seg")
        )
        if existing:
            if not fresh:
                raise FileExistsError(
                    f"{self.directory} already holds a trace store "
                    f"({existing[0]}, ...); use a fresh directory"
                )
            for name in existing:
                (self.directory / name).unlink()
        self.step_phase = step_phase
        self.flush_every = flush_every
        self.meta = dict(meta or {})
        self.closed = False
        self._lock = threading.RLock()
        self._advances: list[float] = []
        self._writer = SegmentWriter(self.directory, segment_bytes, flush_bytes)
        self._max_rank = -1
        self._step_of_rank: dict[int, int] = {}
        self._steps: list[dict[str, Any]] = []
        self._index_gen = 0
        self._published_gen = 0

    # -- recording ------------------------------------------------------

    # EventLog's calls, named in this class body as well so per-class
    # instrumentation (``benchmarks/perf/layers.py``) can wrap them here.
    op = EventLog.op
    phase = EventLog.phase
    mark = EventLog.mark
    send = EventLog.send
    recv = EventLog.recv

    def _record(self, kind: int, fields: tuple) -> None:
        """Queue one unshifted event; drain at the bound, and sync to
        disk when the record count reaches the ``flush_every`` cadence."""
        with self._lock:
            if self.closed:
                raise RuntimeError("trace store is closed")
            self.events.append((kind, fields))
            pending = len(self.events)
            every = self.flush_every
            if not every or (self._writer.records + pending) % every:
                if pending >= DRAIN_EVENTS:
                    self._drain()
                return
            snapshot = self._sync()
        self._publish_index(snapshot)

    def _drain(self) -> None:
        """Write every pending event to the buffer, in order: step
        detection, per-step rollup and the encoded record.  Caller
        holds the lock."""
        off = self._offset
        writer = self._writer
        for kind, fields in self.events:
            self._max_rank = max((self._max_rank, *event_ranks(kind, fields)))
            if kind == KIND_PHASE and fields[2] == self.step_phase:
                rank = fields[0]
                step = self._step_of_rank.get(rank, -1) + 1
                self._step_of_rank[rank] = step
                # Positions of the phase record itself, so reading a
                # step from its start yields the opening phase mark too.
                if step == len(self._steps):
                    self._steps.append({
                        "step": step, "start": list(writer.position()),
                        "starts": {}, "t0": None, "t1": None,
                        "phase_time": {}, "kind_time": {},
                    })
                self._steps[step]["starts"][str(rank)] = writer.records
            elif kind == KIND_OP:
                self._roll_up(fields, off)
            writer.append(kind, shifted(kind, fields, off))
        self.events.clear()

    def _roll_up(self, fields: tuple, off: float) -> None:
        """Add one unshifted op span to its rank's current step."""
        rank, phase, kind, t0, t1 = fields[:5]
        step = self._step_of_rank.get(rank, -1)
        if step < 0:
            return
        entry = self._steps[step]
        span = t1 - t0
        key = str(rank)
        for bucket, name in ((entry["phase_time"], phase),
                             (entry["kind_time"], kind)):
            per_rank = bucket.setdefault(name, {})
            per_rank[key] = per_rank.get(key, 0.0) + span
        if entry["t0"] is None or t0 + off < entry["t0"]:
            entry["t0"] = t0 + off
        if entry["t1"] is None or t1 + off > entry["t1"]:
            entry["t1"] = t1 + off

    # -- epoch plumbing -------------------------------------------------

    def advance(self, dt: float) -> None:
        with self._lock:
            self._drain()
            super().advance(dt)
            self._advances.append(dt)
            snapshot = self._sync()
        self._publish_index(snapshot)

    # -- lifecycle ------------------------------------------------------

    def _sync(self, complete: bool = False) -> tuple[int, str]:
        """Drain, flush (or seal) the log and snapshot the index.
        Caller holds the lock and publishes the snapshot after it."""
        self._drain()
        if complete:
            self._writer.close()
        else:
            self._writer.flush()
        return self._snapshot_index(complete)

    def flush(self) -> None:
        """Flush the buffer and rewrite the index atomically."""
        with self._lock:
            snapshot = self._sync()
        self._publish_index(snapshot)

    def close(self) -> None:
        """Flush, seal segments, and mark the index complete."""
        with self._lock:
            if self.closed:
                return
            snapshot = self._sync(complete=True)
            self.closed = True
        self._publish_index(snapshot)

    def __enter__(self) -> "StoreTracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- introspection --------------------------------------------------

    @property
    def nranks(self) -> int:
        """Number of ranks seen across all five event streams."""
        with self._lock:
            self._drain()
            return self._max_rank + 1

    @property
    def records(self) -> int:
        """Total records recorded so far (written or pending)."""
        with self._lock:
            return self._writer.records + len(self.events)

    @property
    def max_buffered_bytes(self) -> int:
        """High-water mark of the flush buffer."""
        return self._writer.max_buffered

    @property
    def open_segments(self) -> int:
        """Open segment files right now (at most one)."""
        return int(self._writer._file is not None)

    def _snapshot_index(self, complete: bool) -> tuple[int, str]:
        """Serialize the index under the lock; caller publishes outside.

        Returns ``(generation, json text)``.  Serialization must happen
        while the lock is held (the payload reads writer state), but
        the disk write must not — with ``flush_every`` active every
        recording thread would otherwise stall behind index I/O.
        """
        self._index_gen += 1
        payload = {
            "format": STORE_FORMAT,
            "clock": self.clock,
            "complete": complete,
            "records": self._writer.records,
            "nranks": self._max_rank + 1,
            "offset": self._offset,
            "advances": list(self._advances),
            "step_phase": self.step_phase,
            "steps": self._steps,
            "segments": self._writer.segments,
            "meta": self.meta,
        }
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        return self._index_gen, text

    def _publish_index(self, snapshot: tuple[int, str]) -> None:
        """Atomically install an index snapshot, newest-wins.

        The tmp file is written with no lock held; the cheap rename is
        gated on the generation so a slow writer can never clobber a
        newer snapshot (in particular, ``close()``'s ``complete`` index
        always survives).
        """
        gen, text = snapshot
        tmp = self.directory / f"{INDEX_NAME}.{gen}.tmp"
        tmp.write_text(text, encoding="utf-8")
        with self._lock:
            stale = gen <= self._published_gen
            if not stale:
                os.replace(tmp, self.directory / INDEX_NAME)
                self._published_gen = gen
        if stale:
            tmp.unlink()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StoreTracer({self.directory}, {self.records} records)"
