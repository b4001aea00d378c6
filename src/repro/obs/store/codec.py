"""Record encoding and framing for the trace store.

The event file is a sequence of **length-framed records**::

    u32 payload_length | u32 crc32(payload) | payload

The frame makes the stream self-synchronising for the one failure mode
an append-only log has: a crash mid-write leaves a truncated tail.  A
reader that hits a short header, a short payload, or a CRC mismatch
past the prefix the index counts simply drops that tail — every
fully-flushed record before it is intact (see
:func:`repro.obs.store.reader.iter_frames`).

The payload is ``marshal.dumps((kind, fields), MARSHAL_VERSION)``: the
tracer's ``KIND_*`` code and the event's field tuple; a record's place
in the store is its order.  marshal round-trips exactly the values the
tracer records (``None``, ``bool``, ``int``, bit-exact ``float``,
``str``, ``bytes``, ``tuple``, ``list``, ``dict``), so a store reads
back **equal** to the in-memory trace and exporters fed either write
identical bytes.  numpy scalars are reduced to Python numbers first.
The bytes, not the values, also follow object sharing (marshal flags
objects referenced elsewhere).  A store is trusted input, like a
pickled checkpoint.
"""

from __future__ import annotations

import marshal
import struct
import zlib

from repro.obs.tracer import KIND_MARK, KIND_OP, KIND_PHASE
from repro.obs.tracer import KIND_RECV, KIND_SEND

__all__ = [
    "FRAME_HEADER",
    "MARSHAL_VERSION",
    "RECORD_FIELDS",
    "StoreCodecError",
    "decode_record",
    "encode_record",
    "frame",
    "read_frame",
]

#: struct layout of the frame header: payload length, payload crc32.
FRAME_HEADER = struct.Struct("<II")

#: marshal format version, pinned against the interpreter's default.
MARSHAL_VERSION = 4

#: Field count per record kind (the tracer's ``KIND_*`` event codes),
#: mirroring the SpanTracer tuple layouts.
RECORD_FIELDS = {
    KIND_OP: 7,     # rank, phase, kind, t0, t1, flops, nbytes
    KIND_PHASE: 3,  # rank, t, name
    KIND_MARK: 3,   # t, name, args-dict
    KIND_SEND: 6,   # t, src, dst, tag, nbytes, phase
    KIND_RECV: 6,   # t, rank, src, tag, nbytes, phase
}

#: Field types marshal reads back as themselves, no walk needed.
_PLAIN = frozenset((type(None), bool, int, float, str, bytes))


class StoreCodecError(ValueError):
    """Malformed frame or record encoding (not a truncated tail)."""


def _plain(value: object) -> object:
    """``value`` with numpy scalars reduced to Python numbers, through
    tuples, lists and dicts; anything else is refused."""
    if type(value) in _PLAIN:
        return value
    if type(value) in (tuple, list):
        return type(value)(map(_plain, value))  # type: ignore[call-overload]
    if type(value) is dict:
        return {_plain(k): _plain(v) for k, v in value.items()}
    item = getattr(value, "item", None)
    if callable(item):
        return _plain(item())
    raise StoreCodecError(f"{type(value).__name__} value is not storable")


def encode_record(kind: int, fields: tuple) -> bytes:
    """One framed record: header + marshalled ``(kind, fields)``."""
    expected = RECORD_FIELDS.get(kind)
    if expected is None:
        raise StoreCodecError(f"unknown record kind {kind}")
    if len(fields) != expected:
        raise StoreCodecError(
            f"record kind {kind} takes {expected} fields, got {len(fields)}"
        )
    if type(fields) is not tuple or not _PLAIN.issuperset(map(type, fields)):
        fields = tuple(map(_plain, fields))
    return frame(marshal.dumps((kind, fields), MARSHAL_VERSION))


def frame(payload: bytes) -> bytes:
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_frame(buf: bytes, off: int) -> tuple[bytes | None, int]:
    """Extract one frame's payload at ``off``.

    Returns ``(payload, next_off)``; ``(None, off)`` when the remaining
    bytes do not hold one complete, CRC-clean frame (a truncated or
    in-flight tail — the caller decides whether to wait, drop, or
    raise).
    """
    end = off + FRAME_HEADER.size
    if end > len(buf):
        return None, off
    length, crc = FRAME_HEADER.unpack_from(buf, off)
    if end + length > len(buf):
        return None, off
    payload = buf[end: end + length]
    if zlib.crc32(payload) != crc:
        return None, off
    return payload, end + length


def decode_record(payload: bytes) -> tuple[int, tuple]:
    """Decode one frame payload into ``(kind, fields)``."""
    try:
        record = marshal.loads(payload)
    except (ValueError, EOFError, TypeError) as exc:
        raise StoreCodecError(f"undecodable record: {exc}") from exc
    if not (
        type(record) is tuple and len(record) == 2
        and type(record[0]) is int and type(record[1]) is tuple
        and RECORD_FIELDS.get(record[0]) == len(record[1])
    ):
        raise StoreCodecError(f"malformed record {record!r:.80}")
    return record
