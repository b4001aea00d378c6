"""StoreTracer: the streaming counterpart of SpanTracer.

An :class:`repro.obs.tracer.EventLog` like every recorder, so every
producer — the simulated scheduler, the mp/cluster parent extending it
with its workers' logs, serve's per-job tracer — works unchanged.
Instead of keeping the log it drains it, in recording order, to the
store's one append-only event file (:data:`EVENTS_NAME`) as framed
binary records (:mod:`repro.obs.store.codec`).  Memory is bounded by one
flush buffer (:data:`DEFAULT_FLUSH_BYTES`) plus at most
:data:`DRAIN_EVENTS` pending events, regardless of run length.

A record's position in the file is its place in the recording, so a
reader that reads the file in order recovers the exact order
SpanTracer would have recorded — which is what makes the reconstructed
view (and everything exported from it) byte-identical to the in-memory
path.

The writer also maintains the **index** (``index.json``): ``bytes``,
how much of the event file was flushed when the index was written, and,
per step, its start positions, its time span and each rank's
``[compute, comm, wait]`` seconds per phase.  Steps come from
:class:`repro.obs.rollup.StepRollup`, which every event passes through
on its way to disk: a rank entering the first phase of the timestep
cycle (:data:`repro.machine.metrics.PHASE_FLOW`, ``"overflow"``) starts
its next step.  The index is rewritten atomically on :meth:`flush`,
:meth:`advance` and :meth:`close` (and on the ``flush_every`` cadence),
under the writer's lock and always after the bytes it counts;
readers never need it for the records (frames are self-describing) but
use its byte count to tell damage from a torn tail, and its steps for
per-step analytics and trend plots.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import IO, Any

from repro.machine.metrics import PHASE_FLOW
from repro.obs.rollup import StepRollup
from repro.obs.store.codec import encode_record
from repro.obs.tracer import EventLog, event_ranks, shifted

__all__ = ["StoreTracer", "EVENTS_NAME", "INDEX_NAME", "STORE_FORMAT"]

#: File name of the index inside a store directory.
INDEX_NAME = "index.json"

#: File name of the event file inside a store directory.
EVENTS_NAME = "events.seg"

#: Format tag written to (and checked from) the index.
STORE_FORMAT = "repro-trace-store/5"

#: Pending events that force a drain to the flush buffer.
DRAIN_EVENTS = 1024

#: Flush threshold of the write buffer, in bytes; read when a
#: StoreTracer is built.
DEFAULT_FLUSH_BYTES = 64 * 1024


def _store_owned(name: str) -> bool:
    """The index, an event file (of any store format) or a crashed
    writer's leftover index snapshot."""
    return (
        name == INDEX_NAME or name.endswith(".seg")
        or (name.startswith(f"{INDEX_NAME}.") and name.endswith(".tmp"))
    )


class StoreTracer(EventLog):
    """Streaming tracer writing a trace store.

    Recorded events wait in ``events``, without the trace offset, until
    a drain writes them: at :meth:`flush`, :meth:`advance`,
    :meth:`close`, every ``flush_every`` records and whenever
    :data:`DRAIN_EVENTS` are pending.  Every drain precedes an offset
    change, so one offset covers the whole batch.

    Parameters
    ----------
    directory:
        Store directory (created if missing).  With ``fresh=True`` any
        store-owned files already there (``*.seg``, the index and
        leftover ``index.json.*.tmp`` snapshots) are removed first;
        otherwise their presence is an error — a store is append-only
        within one run, never across runs.
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
            p.name for p in self.directory.iterdir() if _store_owned(p.name)
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
        self._flush_bytes = DEFAULT_FLUSH_BYTES
        self.max_buffered_bytes = 0  # high-water mark of the buffer
        self._buffer = bytearray()
        self._file: IO[bytes] | None = None  # opened on the first write
        self._flushed = 0  # bytes of the event file written out
        self._encoded = 0  # records encoded (buffered or written out)
        self._max_rank = -1
        self._fold = StepRollup()
        # step -> ([byte, ordinal] of its first record, rank -> ordinal)
        self._starts: list[tuple[list[int], dict[str, int]]] = []

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
            if not every or (self._encoded + pending) % every:
                if pending >= DRAIN_EVENTS:
                    self._drain()
                return
            self._sync()

    def _drain(self) -> None:
        """Encode every pending event into the buffer, in order, folding
        each into the per-step rollup; write the buffer out whenever it
        reaches ``flush_bytes``.  Caller holds the lock."""
        off = self._offset
        buffer = self._buffer
        for kind, fields in self.events:
            record = shifted(kind, fields, off)
            self._max_rank = max((self._max_rank, *event_ranks(kind, record)))
            # A step starts at its phase record, so reading a step from
            # its start yields the opening phase mark too.
            ordinal = self._encoded
            byte = self._flushed + len(buffer)
            # Encode before the fold keeps references to the record's
            # values: marshal flags shared objects, and the file's bytes
            # would follow.
            buffer += encode_record(kind, record)
            self._encoded += 1
            if len(buffer) >= self._flush_bytes:
                self._write()
            step = self._fold.feed(kind, record)
            if step is not None:
                if step == len(self._starts):
                    self._starts.append(([byte, ordinal], {}))
                self._starts[step][1][str(record[0])] = ordinal
        self.events.clear()

    def _write(self) -> None:
        """Append the buffer to the event file.  Caller holds the lock."""
        if not self._buffer:
            return
        if self._file is None:
            self._file = open(  # noqa: SIM115 - held across calls
                self.directory / EVENTS_NAME, "ab"
            )
        self._file.write(self._buffer)
        self._file.flush()
        self._flushed += len(self._buffer)
        self.max_buffered_bytes = max(
            self.max_buffered_bytes, len(self._buffer)
        )
        self._buffer.clear()

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
            self._sync()

    # -- lifecycle ------------------------------------------------------

    def _sync(self, complete: bool = False) -> None:
        """Drain, write out (and on completion close) the event file,
        then rewrite the index.  Caller holds the lock."""
        self._drain()
        self._write()
        if complete and self._file is not None:
            self._file.close()
            self._file = None
        self._write_index(complete)

    def flush(self) -> None:
        """Flush the buffer and rewrite the index atomically."""
        with self._lock:
            self._sync()

    def close(self) -> None:
        """Flush, close the event file, and mark the index complete."""
        with self._lock:
            if self.closed:
                return
            self._sync(complete=True)
            self.closed = True

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
            return self._encoded + len(self.events)

    def _write_index(self, complete: bool) -> None:
        """Rewrite the index atomically (tmp file, then rename).  Caller
        holds the lock, so the newest index is always the last one
        installed and ``close()``'s ``complete`` index survives."""
        payload = {
            "format": STORE_FORMAT,
            "clock": self.clock,
            "complete": complete,
            "records": self._encoded,
            "bytes": self._flushed,
            "nranks": self._max_rank + 1,
            "offset": self._offset,
            "advances": list(self._advances),
            "step_phase": PHASE_FLOW,
            "steps": self._step_rows(),
            "meta": self.meta,
        }
        tmp = self.directory / f"{INDEX_NAME}.tmp"
        tmp.write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.directory / INDEX_NAME)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StoreTracer({self.directory}, {self.records} records)"
