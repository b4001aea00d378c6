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
segment list and, per step, its start positions, its time span and
each rank's ``[compute, comm, wait]`` seconds per phase.  Steps come
from :class:`repro.obs.rollup.StepRollup`, which every event passes
through on its way to disk: a rank entering the first phase of the
timestep cycle (:data:`repro.machine.metrics.PHASE_FLOW`,
``"overflow"``) starts its next step.  The index is
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

from repro.machine.metrics import PHASE_FLOW
from repro.obs.store.segment import SegmentWriter
from repro.obs.rollup import StepRollup
from repro.obs.tracer import EventLog, event_ranks, shifted

__all__ = ["StoreTracer", "INDEX_NAME", "STORE_FORMAT"]

#: File name of the segment index inside a store directory.
INDEX_NAME = "index.json"

#: Format tag written to (and checked from) the index.
STORE_FORMAT = "repro-trace-store/4"

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
        self.flush_every = flush_every
        self.meta = dict(meta or {})
        self.closed = False
        self._lock = threading.RLock()
        self._advances: list[float] = []
        self._writer = SegmentWriter(self.directory)
        self._max_rank = -1
        self._fold = StepRollup()
        # step -> (its first record's position, rank -> record ordinal)
        self._starts: list[tuple[list[int], dict[str, int]]] = []
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
        """Write every pending event to the buffer, in order, folding
        each into the per-step rollup.  Caller holds the lock."""
        off = self._offset
        writer = self._writer
        for kind, fields in self.events:
            record = shifted(kind, fields, off)
            self._max_rank = max((self._max_rank, *event_ranks(kind, record)))
            # A step starts at its phase record, so reading a step from
            # its start yields the opening phase mark too.
            start = writer.position()
            # Encode before the fold keeps references to the record's
            # values: marshal flags shared objects, and the segment
            # bytes would follow.
            writer.append(kind, record)
            step = self._fold.feed(kind, record)
            if step is not None:
                if step == len(self._starts):
                    self._starts.append((list(start), {}))
                self._starts[step][1][str(record[0])] = start[2]
        self.events.clear()

    def _step_rows(self) -> list[dict[str, Any]]:
        """The index's step rows: where each step starts, its time span
        and each rank's ``[compute, comm, wait]`` seconds per phase."""
        rows = []
        for step, (start, starts) in enumerate(self._starts):
            bounds = self._fold.bounds[step].values()
            rows.append({
                "step": step, "start": start, "starts": starts,
                "t0": min((b[0] for b in bounds), default=None),
                "t1": max((b[1] for b in bounds), default=None),
                "cells": {
                    str(row.rank): {
                        phase: [c.compute, c.comm, c.wait]
                        for phase, c in row.cells.items()
                    }
                    for row in self._fold.steps[step].ranks if row.cells
                },
            })
        return rows

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
            "step_phase": PHASE_FLOW,
            "steps": self._step_rows(),
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
