"""Readers for the sharded segment store.

Three consumers, three shapes:

:func:`load_store`
    Reconstruct the exact :class:`~repro.obs.tracer.SpanTracer` view of
    a finished store — merge every shard by global sequence number into
    a fresh tracer's event log.  Everything downstream (Chrome-trace
    exporter, rollup CSV, critical path, ``repro trace-diff``) consumes
    the result unchanged and byte-identically to the in-memory path.

:class:`StoreReader`
    Lazy k-way merge over the shards (O(shards) memory) plus access to
    the index.  Works with or without ``index.json``: segments are
    self-describing, so a store whose writer crashed before its first
    index flush still reads back everything durably flushed.

:class:`TailReader`
    Incremental tailing of a store that is **still being written** —
    the feed for ``repro top``.  Each :meth:`~TailReader.poll` returns
    records that became durable since the previous poll, tolerating
    in-flight partial frames (retried next poll) and newly appearing
    segment files.
"""

from __future__ import annotations

import heapq
import itertools
import json
from pathlib import Path
from typing import Any, Iterator

from repro.obs.store.codec import decode_record as _decode_record
from repro.obs.store.codec import read_frame
from repro.obs.store.segment import (
    StoreCorruptionError,
    iter_segment_records,
    numbered_segments,
    read_segment,
)
from repro.obs.store.writer import INDEX_NAME, STORE_FORMAT
from repro.obs.tracer import SpanTracer

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
        self.shards = numbered_segments(self.directory)
        if not self.shards and self.index is None:
            raise FileNotFoundError(
                f"{self.directory} holds neither segments nor an index"
            )

    def _iter_shard_from(
        self, shard: str, seg: int, byte: int
    ) -> Iterator[tuple]:
        """One shard's ``(seq, kind, fields)`` records from a (segment,
        byte) offset on."""
        segments = self.shards.get(shard, {})
        final = max(segments, default=None)
        for idx, path in segments.items():
            if idx < seg:
                continue
            start = byte if idx == seg else 0
            for kind, seq, fields in iter_segment_records(
                path, last=idx == final, start=start
            ):
                yield seq, kind, fields

    def _step_starts(self, from_step: int) -> dict[str, tuple[int, int]]:
        """Per-shard (segment, byte) start offsets for ``from_step``."""
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
        starts = steps[from_step].get("starts", {})
        return {s: (int(v[0]), int(v[1])) for s, v in starts.items()}

    def iter_records(self, from_step: int | None = None) -> Iterator[tuple]:
        """All records across shards, merged by global sequence number.

        Per-shard streams are already seq-sorted (the writer's counter
        is monotone), so this is a lazy k-way heap merge: O(shards)
        memory however long the trace is.

        ``from_step`` seeds each rank shard at the index's per-step
        byte offset instead of replaying from byte zero — only the
        bytes from that step on are read.  Shards without an offset
        entry for the step (the rank-less ``driver`` stream, or ranks
        that died earlier) are filtered to sequence numbers at or after
        the earliest offset-started record, so the merged stream is
        exactly the tail of the full replay.  Raises :class:`ValueError`
        when the store has no index or the step is out of range.
        """
        if from_step is None:
            return heapq.merge(
                *(self._iter_shard_from(s, 0, 0) for s in self.shards)
            )
        starts = self._step_starts(from_step)
        streams: list[Iterator[tuple]] = []
        min_seq: int | None = None
        for shard in sorted(starts):
            if shard not in self.shards:
                continue
            seg, byte = starts[shard]
            it = self._iter_shard_from(shard, seg, byte)
            first = next(it, None)
            if first is None:
                continue
            if min_seq is None or first[0] < min_seq:
                min_seq = first[0]
            streams.append(itertools.chain([first], it))
        floor = 0 if min_seq is None else min_seq
        for shard in self.shards:
            if shard in starts:
                continue
            streams.append(
                rec for rec in self._iter_shard_from(shard, 0, 0)
                if rec[0] >= floor
            )
        return heapq.merge(*streams)

    def to_tracer(self, from_step: int | None = None) -> SpanTracer:
        """The merged stream as an in-memory SpanTracer's event log."""
        tracer = SpanTracer()
        if self.index is not None:
            tracer.clock = self.index.get("clock", "virtual")
            tracer._offset = float(self.index.get("offset", 0.0))
        tracer.events.extend(
            (kind, fields)
            for _seq, kind, fields in self.iter_records(from_step=from_step)
        )
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

    Keeps one cursor per shard: the segment currently being read and
    the byte offset of the next frame, from which each poll reads, so a
    refresh costs the bytes appended since the last one.  A shard's
    cursor only advances past a segment once the *next* numbered segment
    exists (rotation means the previous file is sealed); an incomplete
    or CRC-failing frame at the current position is treated as in-flight
    and retried on the next poll.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        # shard -> [segment index, byte offset]
        self._cursors: dict[str, list[int]] = {}

    def poll(self) -> list[tuple]:
        """Return records that became durable since the last poll."""
        out: list[tuple] = []
        if not self.directory.is_dir():
            return out
        for shard, by_index in numbered_segments(self.directory).items():
            cursor = self._cursors.setdefault(shard, [0, 0])
            while True:
                path = by_index.get(cursor[0])
                if path is None:
                    break
                buf = read_segment(path, cursor[1])
                off = 0
                while off < len(buf):
                    payload, off2 = read_frame(buf, off)
                    if payload is None:
                        break  # in-flight tail: retry next poll
                    kind, seq, fields = _decode_record(payload)
                    out.append((seq, kind, fields))
                    off = off2
                cursor[1] += off
                # Advance to the next segment only once it exists:
                # rotation guarantees the current file is sealed then.
                if cursor[0] + 1 in by_index and off >= len(buf):
                    cursor[0] += 1
                    cursor[1] = 0
                else:
                    break
        out.sort()
        return out

    def index(self) -> dict[str, Any] | None:
        """Latest index snapshot, if the writer has flushed one."""
        return load_index(self.directory)
