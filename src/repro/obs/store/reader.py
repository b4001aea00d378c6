"""Readers for the segment store.

Three consumers, three shapes:

:func:`load_store`
    Reconstruct the exact :class:`~repro.obs.tracer.SpanTracer` view of
    a finished store — its records, in order, as a fresh tracer's event
    log.  Everything downstream (Chrome-trace exporter, rollup CSV,
    critical path, ``repro trace-diff``) consumes the result unchanged
    and byte-identically to the in-memory path.

:class:`StoreReader`
    Lazy, in-order iteration over the segments plus access to the
    index.  Works with or without ``index.json``: segments are
    self-describing, so a store whose writer crashed before its first
    index flush still reads back everything durably flushed.

:class:`TailReader`
    Incremental tailing of a store that is **still being written** —
    the feed for ``repro top``.  Each :meth:`~TailReader.poll` returns
    records that became durable since the previous poll, tolerating an
    in-flight partial frame in the newest segment (retried next poll)
    and newly appearing segment files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

from repro.obs.store.segment import (
    StoreCorruptionError,
    iter_frames,
    iter_segment_records,
    numbered_segments,
    read_segment,
)
from repro.obs.store.writer import INDEX_NAME, STORE_FORMAT
from repro.obs.tracer import SpanTracer, event_ranks

__all__ = ["StoreReader", "TailReader", "load_store", "load_index"]


def load_index(directory: str | Path) -> dict[str, Any] | None:
    """Load ``index.json``; ``None`` when absent or unreadable.

    A missing/torn index is not an error — the writer may have crashed
    before its first flush, and segments carry all the event data.  A
    *well-formed* index with the wrong format tag raises, because that
    is a version mismatch, not a crash artefact.
    """
    path = Path(directory) / INDEX_NAME
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    fmt = payload.get("format")
    if fmt != STORE_FORMAT:
        raise StoreCorruptionError(
            f"{path}: unsupported store format {fmt!r} "
            f"(expected {STORE_FORMAT!r})"
        )
    return payload


class StoreReader:
    """Read a (finished or crashed) store directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise FileNotFoundError(f"no trace store at {self.directory}")
        self.index = load_index(self.directory)
        self.segments = numbered_segments(self.directory)
        if not self.segments and self.index is None:
            raise FileNotFoundError(
                f"{self.directory} holds neither segments nor an index"
            )

    def _iter_from(self, seg: int, byte: int) -> Iterator[tuple]:
        """``(kind, fields)`` records from a (segment, byte) position on."""
        final = max(self.segments, default=None)
        for idx, path in self.segments.items():
            if idx >= seg:
                yield from iter_segment_records(
                    path, last=idx == final, start=byte if idx == seg else 0
                )

    def _iter_step(self, row: dict[str, Any]) -> Iterator[tuple]:
        """Records from a step row's ``start`` on, each rank's from its
        own ``starts`` ordinal on."""
        seg, byte, first = row["start"]
        starts = {int(r): n for r, n in row["starts"].items()}
        for n, (kind, fields) in enumerate(self._iter_from(seg, byte), first):
            ranks = event_ranks(kind, fields)
            if not ranks or starts.get(ranks[0], n) <= n:
                yield kind, fields

    def iter_records(self, from_step: int | None = None) -> Iterator[tuple]:
        """Every record, ``(kind, fields)``, in recording order.

        ``from_step`` seeks to the step's ``start`` — the first rank's
        step-phase record — instead of replaying from byte zero, and
        drops each record whose own rank (:func:`event_ranks`' first)
        enters the step later than that record: each rank's records
        begin at its own step-phase record.  Marks, and records of ranks
        that never entered the step, are kept from the seek point on.
        Raises :class:`ValueError` when the store has no index or the
        step is out of range.
        """
        if from_step is None:
            return self._iter_from(0, 0)
        steps = self.steps
        if not steps:
            raise ValueError(
                f"partial replay needs a store index with per-step "
                f"offsets; {self.directory} has none"
            )
        if not 0 <= from_step < len(steps):
            raise ValueError(
                f"from_step {from_step} out of range; store has steps "
                f"0..{len(steps) - 1}"
            )
        return self._iter_step(steps[from_step])

    def to_tracer(self, from_step: int | None = None) -> SpanTracer:
        """The record stream as an in-memory SpanTracer's event log."""
        tracer = SpanTracer()
        if self.index is not None:
            tracer.clock = self.index.get("clock", "virtual")
            tracer._offset = float(self.index.get("offset", 0.0))
        tracer.events.extend(self.iter_records(from_step=from_step))
        return tracer

    @property
    def steps(self) -> list[dict[str, Any]]:
        """Per-step index entries (empty when no index was written)."""
        if self.index is None:
            return []
        return list(self.index.get("steps", []))


def load_store(
    directory: str | Path, from_step: int | None = None
) -> SpanTracer:
    """Reconstruct the SpanTracer view of a store directory."""
    return StoreReader(directory).to_tracer(from_step=from_step)


class TailReader:
    """Incrementally tail a store that may still be growing.

    Keeps one cursor — the segment and byte offset of the next frame —
    so a refresh costs the bytes appended since the last one.  Rotation
    seals a segment before its successor exists, so only in the newest
    segment is an incomplete or CRC-failing frame in flight (retried
    next poll); in a sealed one it raises :class:`StoreCorruptionError`.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._segment = 0
        self._byte = 0

    def poll(self) -> list[tuple]:
        """Return records that became durable since the last poll."""
        out: list[tuple] = []
        if not self.directory.is_dir():
            return out
        segments = numbered_segments(self.directory)
        while self._segment in segments:
            newest = self._segment + 1 not in segments
            path = segments[self._segment]
            buf = read_segment(path, self._byte)
            end = 0
            for record, end in iter_frames(path, buf, self._byte, newest):
                out.append(record)
            self._byte += end
            if newest:
                break
            self._segment += 1
            self._byte = 0
        return out

    def index(self) -> dict[str, Any] | None:
        """Latest index snapshot, if the writer has flushed one."""
        return load_index(self.directory)
