"""Readers for the trace store.

Three consumers, three shapes:

:func:`load_store`
    Reconstruct the exact :class:`~repro.obs.tracer.SpanTracer` view of
    a finished store — its records, in order, as a fresh tracer's event
    log.  Everything downstream (Chrome-trace exporter, rollup CSV,
    critical path, ``repro trace-diff``) consumes the result unchanged
    and byte-identically to the in-memory path.

:class:`StoreReader`
    Lazy, in-order iteration over the event file plus access to the
    index.  Works with or without ``index.json``: frames are
    self-describing, so a store whose writer crashed before its first
    index flush still reads back everything durably flushed.

:class:`TailReader`
    Incremental tailing of a store that is **still being written** —
    the feed for ``repro top``.  Each :meth:`~TailReader.poll` returns
    records that became durable since the previous poll, tolerating an
    in-flight partial frame at the end of the file (retried next poll).

Both read the one event file from a byte cursor, and both apply one
corruption rule.  The index's ``bytes`` counts the prefix of the event
file the writer had flushed when it wrote the index — the *sealed*
prefix.  A short, CRC-failing or undecodable frame that starts inside
it is damage from outside and raises :class:`StoreCorruptionError`; a
short or CRC-failing frame past it is a torn (or in-flight) tail.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

from repro.obs.store.codec import StoreCodecError, decode_record, read_frame
from repro.obs.store.writer import EVENTS_NAME, INDEX_NAME, STORE_FORMAT
from repro.obs.tracer import SpanTracer, event_ranks

__all__ = [
    "StoreCorruptionError",
    "StoreReader",
    "TailReader",
    "load_index",
    "load_store",
]


class StoreCorruptionError(RuntimeError):
    """The event file is damaged inside its sealed prefix, or the store
    is of another format."""


def load_index(directory: str | Path) -> dict[str, Any] | None:
    """Load ``index.json``; ``None`` when absent or unreadable.

    A missing/torn index is not an error — the writer may have crashed
    before its first flush, and the event file carries all the event
    data.  A *well-formed* index with the wrong format tag raises,
    because that is a version mismatch, not a crash artefact.
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


def sealed_bytes(index: dict[str, Any] | None) -> int:
    """Bytes of the event file the index vouches for (0 without one)."""
    return 0 if index is None else int(index["bytes"])


def events_path(directory: Path) -> Path:
    """The event file of ``directory`` (which may not exist yet).

    Any other ``*.seg`` file raises :class:`StoreCorruptionError`: it
    belongs to an older store layout (``segment-NNNNN.seg``,
    ``shard-*.seg``), which must be refused by name rather than read
    as an empty store.
    """
    for path in directory.glob("*.seg"):
        if path.name != EVENTS_NAME:
            raise StoreCorruptionError(
                f"{path}: not the event file of this store format (an "
                f"older store layout?)"
            )
    return directory / EVENTS_NAME


def read_events(path: Path, start: int = 0) -> bytes:
    """The bytes of the event file from byte ``start`` on (none when the
    writer has not created it yet)."""
    try:
        with open(path, "rb") as f:
            f.seek(start)
            return f.read()
    except FileNotFoundError:
        return b""


def iter_frames(
    path: Path, buf: bytes, start: int, sealed: int
) -> Iterator[tuple[tuple, int]]:
    """Yield ``((kind, fields), end offset in buf)`` per frame of ``buf``,
    the bytes of ``path`` from byte ``start`` on.

    A bad frame (or the end of the bytes) before byte ``sealed`` raises
    :class:`StoreCorruptionError`; a short or CRC-failing frame at or
    past it ends the iteration — the tail a crash tore, or one still
    being written.  An undecodable payload raises anywhere.
    """
    off = 0
    while off < len(buf):
        payload, end = read_frame(buf, off)
        if payload is None:
            break
        try:
            yield decode_record(payload), end
        except StoreCodecError as exc:
            raise StoreCorruptionError(f"{path}: {exc}") from exc
        off = end
    if start + off < sealed:
        raise StoreCorruptionError(
            f"{path}: corrupt or missing frame at byte {start + off}, "
            f"inside the {sealed} bytes the index counts"
        )


class StoreReader:
    """Read a (finished or crashed) store directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise FileNotFoundError(f"no trace store at {self.directory}")
        self.index = load_index(self.directory)
        self.path = events_path(self.directory)
        if not self.path.exists() and self.index is None:
            raise FileNotFoundError(
                f"{self.directory} holds neither an event file nor an index"
            )

    def _iter_from(self, byte: int) -> Iterator[tuple]:
        """``(kind, fields)`` records from byte ``byte`` on; a torn tail
        past the sealed prefix is dropped."""
        buf = read_events(self.path, byte)
        for record, _ in iter_frames(
            self.path, buf, byte, sealed_bytes(self.index)
        ):
            yield record

    def _iter_step(self, row: dict[str, Any]) -> Iterator[tuple]:
        """Records from a step row's ``start`` on, each rank's from its
        own ``starts`` ordinal on."""
        byte, first = row["start"]
        starts = {int(r): n for r, n in row["starts"].items()}
        for n, (kind, fields) in enumerate(self._iter_from(byte), first):
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
            return self._iter_from(0)
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

    Keeps one cursor — the byte offset of the next frame — so a refresh
    costs the bytes appended since the last one.  Each poll reads the
    index before the bytes it vouches for, so the sealed prefix it
    checks against is always on disk already.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._byte = 0
        #: The index snapshot the latest poll read (None until the
        #: writer has flushed one).
        self.index: dict[str, Any] | None = None

    def poll(self) -> list[tuple]:
        """Return records that became durable since the last poll."""
        if not self.directory.is_dir():
            return []
        path = events_path(self.directory)
        self.index = load_index(self.directory)
        buf = read_events(path, self._byte)
        out: list[tuple] = []
        end = 0
        for record, end in iter_frames(
            path, buf, self._byte, sealed_bytes(self.index)
        ):
            out.append(record)
        self._byte += end
        return out
