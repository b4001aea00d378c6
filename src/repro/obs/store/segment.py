"""Append-only segment files: one ordered log, bounded buffering.

A store is one series of numbered segment files holding every record in
recording order::

    <store>/segment-00000.seg, segment-00001.seg, ...

each an append-only sequence of framed records (:mod:`codec`).  The
writer holds exactly **one open segment**: a bounded byte buffer
(flushed whenever it exceeds :data:`DEFAULT_FLUSH_BYTES` or on an
explicit :meth:`SegmentWriter.flush`) plus the current file handle.
When a segment file reaches :data:`DEFAULT_SEGMENT_BYTES` it is closed
and the next one started — so writer memory is O(flush buffer), never
O(trace), and a finished segment is immutable from that point on.

Readers tolerate a truncated tail on the *last* segment (crash
mid-flush); a short or corrupt frame anywhere else raises
:class:`StoreCorruptionError`, because a sealed segment can only be
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
    "iter_frames",
    "iter_segment_records",
    "numbered_segments",
    "read_segment",
    "segment_path",
]

#: Segment rotation size (bytes of framed records per file); a writer
#: reads it when it is built.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Flush threshold for the in-memory buffer; read when a writer is built.
DEFAULT_FLUSH_BYTES = 64 * 1024

_SEGMENT_RE = re.compile(r"^segment-(\d{5})\.seg$")


class StoreCorruptionError(RuntimeError):
    """A segment is damaged somewhere other than its recoverable tail."""


def segment_path(directory: Path, index: int) -> Path:
    return directory / f"segment-{index:05d}.seg"


def numbered_segments(directory: Path) -> dict[int, Path]:
    """Map segment number -> file found in ``directory``, ascending.

    Any other ``*.seg`` file raises :class:`StoreCorruptionError`: it
    belongs to an older store layout, which must be refused by name
    rather than read as an empty store.
    """
    segments: dict[int, Path] = {}
    for path in directory.glob("*.seg"):
        m = _SEGMENT_RE.match(path.name)
        if m is None:
            raise StoreCorruptionError(
                f"{path}: not a segment of this store format (an older "
                f"store layout?)"
            )
        segments[int(m.group(1))] = path
    return dict(sorted(segments.items()))


def read_segment(path: Path, start: int = 0) -> bytes:
    """The bytes of one segment file from byte ``start`` on."""
    with open(path, "rb") as f:
        f.seek(start)
        return f.read()


def iter_frames(
    path: Path, buf: bytes, start: int = 0, last: bool = True
) -> Iterator[tuple[tuple, int]]:
    """Yield ``((kind, fields), end offset in buf)`` per frame of ``buf``,
    the bytes of ``path`` from byte ``start`` on.

    ``last=True`` (the store's final segment) makes an incomplete or
    CRC-failing tail frame a silent stop — the crash-recovery contract.
    On sealed segments the same condition raises
    :class:`StoreCorruptionError`, as does an undecodable payload.
    """
    off = 0
    while off < len(buf):
        payload, end = read_frame(buf, off)
        if payload is None:
            if last:
                return  # truncated tail: drop it
            raise StoreCorruptionError(
                f"{path}: corrupt frame at byte {start + off} in a "
                f"non-final segment"
            )
        try:
            yield decode_record(payload), end
        except StoreCodecError as exc:
            raise StoreCorruptionError(f"{path}: {exc}") from exc
        off = end


def iter_segment_records(
    path: Path, last: bool = True, start: int = 0
) -> Iterator[tuple[int, tuple]]:
    """Yield ``(kind, fields)`` records from one segment file, from byte
    ``start`` on (a frame boundary, e.g. from the index's per-step
    positions); ``last`` as in :func:`iter_frames`."""
    for record, _ in iter_frames(path, read_segment(path, start), start, last):
        yield record


class SegmentWriter:
    """Buffered append-only writer for the store's one log.

    Tracks a buffer high-water mark (``max_buffered``) so tests can
    assert the bounded-memory contract, and exposes ``position()`` —
    where the *next* record will land — for the store index's per-step
    offsets.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.segment_bytes = DEFAULT_SEGMENT_BYTES
        self.flush_bytes = DEFAULT_FLUSH_BYTES
        self.segment_index = 0
        self.records = 0
        self.max_buffered = 0
        self._written = 0          # bytes flushed to the current segment
        self._buffer = bytearray()
        self._file: IO[bytes] | None = None  # opened lazily on first flush
        self._segments: list[dict] = []  # closed-segment index entries

    # -- writing --------------------------------------------------------

    def append(self, kind: int, fields: tuple) -> None:
        self.records += 1
        self._buffer += encode_record(kind, fields)
        if len(self._buffer) > self.max_buffered:
            self.max_buffered = len(self._buffer)
        if len(self._buffer) >= self.flush_bytes:
            self.flush()

    def position(self) -> tuple[int, int, int]:
        """(segment index, byte offset, record ordinal) of the next
        record appended."""
        return (
            self.segment_index, self._written + len(self._buffer), self.records
        )

    def flush(self) -> None:
        """Write the buffer out; rotate when the segment is full."""
        if not self._buffer:
            return
        if self._file is None:
            self._file = open(  # noqa: SIM115 - held across calls
                segment_path(self.directory, self.segment_index), "ab"
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
            self._rotate()

    # -- index metadata -------------------------------------------------

    @property
    def segments(self) -> list[dict]:
        """Index entries of the closed and current segments."""
        if not self._written:
            return list(self._segments)
        return self._segments + [
            {"index": self.segment_index, "bytes": self._written}
        ]
