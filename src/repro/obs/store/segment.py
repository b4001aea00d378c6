"""Append-only segment files: one shard per rank, bounded buffering.

A *shard* is one logical event stream (one rank, or the rank-less
``driver`` stream of marks).  On disk a shard is a series of numbered
segment files::

    <store>/shard-0-00000.seg, shard-0-00001.seg, ...
    <store>/shard-driver-00000.seg, ...

each an append-only sequence of framed records (:mod:`codec`).  The
writer holds exactly **one open segment per shard**: a bounded byte
buffer (flushed whenever it exceeds ``flush_bytes`` or on an explicit
:meth:`SegmentWriter.flush`) plus the current file handle.  When a
segment file reaches ``segment_bytes`` it is closed and the next one
started — so writer memory is O(flush buffer), never O(trace), and a
finished segment is immutable from that point on.

Readers tolerate a truncated tail on the *last* segment of a shard
(crash mid-flush); a short or corrupt frame anywhere else raises
:class:`StoreCorruptionError`, because an interior segment can only be
damaged by outside interference, not by a crash.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import IO, Iterator

from repro.obs.store.codec import (
    StoreCodecError,
    decode_record,
    encode_record,
    read_frame,
)

__all__ = [
    "SegmentWriter",
    "StoreCorruptionError",
    "iter_segment_records",
    "numbered_segments",
    "read_segment",
    "segment_path",
    "shard_segments",
]

#: Default segment rotation size (bytes of framed records per file).
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Default flush threshold for the in-memory buffer.
DEFAULT_FLUSH_BYTES = 64 * 1024

_SEGMENT_RE = re.compile(r"^shard-(\d+|driver)-(\d{5})\.seg$")


class StoreCorruptionError(RuntimeError):
    """A segment is damaged somewhere other than its recoverable tail."""


def segment_path(directory: Path, shard: str, index: int) -> Path:
    return directory / f"shard-{shard}-{index:05d}.seg"


def numbered_segments(directory: Path) -> dict[str, dict[int, Path]]:
    """Map shard name -> {segment number: file} found in ``directory``,
    both in ascending order."""
    shards: dict[str, list[tuple[int, Path]]] = {}
    for path in directory.iterdir():
        m = _SEGMENT_RE.match(path.name)
        if m:
            shards.setdefault(m.group(1), []).append((int(m.group(2)), path))
    return {
        shard: dict(sorted(entries))
        for shard, entries in sorted(shards.items())
    }


def shard_segments(directory: Path) -> dict[str, list[Path]]:
    """Map shard name -> ordered segment files found in ``directory``."""
    return {
        shard: list(segments.values())
        for shard, segments in numbered_segments(directory).items()
    }


def read_segment(path: Path, start: int = 0) -> bytes:
    """The bytes of one segment file from byte ``start`` on."""
    with open(path, "rb") as f:
        f.seek(start)
        return f.read()


def iter_segment_records(
    path: Path, last: bool = True, start: int = 0
) -> Iterator[tuple[int, int, tuple]]:
    """Yield ``(kind, seq, fields)`` records from one segment file.

    ``last=True`` (the final segment of a shard) makes an incomplete or
    CRC-failing tail frame a silent stop — the crash-recovery contract.
    On interior segments the same condition raises
    :class:`StoreCorruptionError`.  ``start`` skips to a byte offset
    (must be a frame boundary, e.g. from the index's per-step offsets);
    only the bytes from there on are read.
    """
    buf = read_segment(path, start)
    off = 0
    while off < len(buf):
        payload, off2 = read_frame(buf, off)
        if payload is None:
            if last:
                return  # truncated tail: drop it
            raise StoreCorruptionError(
                f"{path}: corrupt frame at byte {start + off} in a "
                f"non-final segment"
            )
        try:
            yield decode_record(payload)
        except StoreCodecError as exc:
            raise StoreCorruptionError(f"{path}: {exc}") from exc
        off = off2


class SegmentWriter:
    """Buffered append-only writer for one shard.

    Tracks a buffer high-water mark (``max_buffered``) so tests can
    assert the bounded-memory contract, and exposes ``position()`` —
    the (segment index, byte offset) the *next* record will land at —
    for the store index's per-step offsets.
    """

    def __init__(
        self,
        directory: Path,
        shard: str,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        flush_bytes: int = DEFAULT_FLUSH_BYTES,
    ) -> None:
        if segment_bytes < 1 or flush_bytes < 1:
            raise ValueError("segment_bytes and flush_bytes must be >= 1")
        self.directory = directory
        self.shard = shard
        self.segment_bytes = segment_bytes
        self.flush_bytes = flush_bytes
        self.segment_index = 0
        self.records = 0
        self.max_buffered = 0
        self._written = 0          # bytes flushed to the current segment
        self._buffer = bytearray()
        self._file: IO[bytes] | None = None  # opened lazily on first flush
        self._segments: list[dict] = []  # closed-segment index entries
        self._first_seq: int | None = None
        self._last_seq: int | None = None

    # -- writing --------------------------------------------------------

    def append(self, kind: int, seq: int, fields: tuple) -> None:
        if self._first_seq is None:
            self._first_seq = seq
        self._last_seq = seq
        self.records += 1
        self._buffer += encode_record(kind, seq, fields)
        if len(self._buffer) > self.max_buffered:
            self.max_buffered = len(self._buffer)
        if len(self._buffer) >= self.flush_bytes:
            self.flush()

    def position(self) -> tuple[int, int]:
        """(segment index, byte offset) of the next record appended."""
        return self.segment_index, self._written + len(self._buffer)

    def flush(self) -> None:
        """Write the buffer out; rotate when the segment is full."""
        if not self._buffer:
            return
        if self._file is None:
            self._file = open(  # noqa: SIM115 - held across calls
                segment_path(self.directory, self.shard, self.segment_index),
                "ab",
            )
        self._file.write(self._buffer)
        self._file.flush()
        self._written += len(self._buffer)
        self._buffer.clear()
        if self._written >= self.segment_bytes:
            self._rotate()

    def _rotate(self) -> None:
        assert self._file is not None
        self._file.close()
        self._file = None
        self._segments.append(
            {"index": self.segment_index, "bytes": self._written}
        )
        self.segment_index += 1
        self._written = 0

    def close(self) -> None:
        self.flush()
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._written:
            self._segments.append(
                {"index": self.segment_index, "bytes": self._written}
            )
            self._written = 0

    # -- index metadata -------------------------------------------------

    def describe(self) -> dict:
        """Index entry for this shard (closed + current segments)."""
        segments = list(self._segments)
        if self._written:
            segments = segments + [
                {"index": self.segment_index, "bytes": self._written}
            ]
        return {
            "records": self.records,
            "first_seq": self._first_seq,
            "last_seq": self._last_seq,
            "segments": segments,
        }
