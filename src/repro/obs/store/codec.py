"""Binary value codec and record framing for the segment store.

Segment files are sequences of **length-framed records**::

    u32 payload_length | u32 crc32(payload) | payload

The frame makes the stream self-synchronising for the one failure mode
an append-only log has: a crash mid-write leaves a truncated tail.  A
reader that hits a short header, a short payload, or a CRC mismatch on
the *final* frame of the *final* segment simply drops that tail — every
fully-flushed record before it is intact (see
:func:`repro.obs.store.segment.iter_segment_records`).

The payload is one record: a kind byte, a varint global sequence
number, and the event's fields encoded with a small tagged value codec
(:func:`encode_value` / :func:`decode_value`).  The codec round-trips
exactly the Python values the tracer records — ``None``, ``bool``,
arbitrary-precision ``int``, ``float`` (binary64, bit-exact), ``str``,
``bytes``, ``list`` and ``dict`` — so a trace read back from the store
compares **equal** to the in-memory one, and exporters fed either
produce byte-identical output.  Tuples are encoded as lists (the
tracer's tuple layouts are rebuilt by the reader, not the codec).
"""

from __future__ import annotations

import struct
import zlib

from repro.obs.tracer import KIND_MARK, KIND_OP, KIND_PHASE
from repro.obs.tracer import KIND_RECV, KIND_SEND

__all__ = [
    "FRAME_HEADER",
    "RECORD_FIELDS",
    "StoreCodecError",
    "decode_record",
    "decode_value",
    "encode_record",
    "encode_value",
    "frame",
    "read_frame",
]

#: struct layout of the frame header: payload length, payload crc32.
FRAME_HEADER = struct.Struct("<II")

#: Field count per record kind byte (the tracer's ``KIND_*`` event
#: codes), after the kind byte and seq varint, mirroring the SpanTracer
#: tuple layouts.
RECORD_FIELDS = {
    KIND_OP: 7,     # rank, phase, kind, t0, t1, flops, nbytes
    KIND_PHASE: 3,  # rank, t, name
    KIND_MARK: 3,   # t, name, args-dict
    KIND_SEND: 6,   # t, src, dst, tag, nbytes, phase
    KIND_RECV: 6,   # t, rank, src, tag, nbytes, phase
}


class StoreCodecError(ValueError):
    """Malformed frame or value encoding (not a truncated tail)."""


# ----------------------------------------------------------------------
# varints (unsigned LEB128)


def _encode_uvarint(value: int, out: bytearray) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _decode_uvarint(buf: bytes, off: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if off >= len(buf):
            raise StoreCodecError("truncated varint")
        byte = buf[off]
        off += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, off
        shift += 7


# ----------------------------------------------------------------------
# tagged values

_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT_POS = 3   # uvarint
_T_INT_NEG = 4   # uvarint of -value
_T_FLOAT = 5     # binary64 little-endian
_T_STR = 6       # uvarint length + utf-8
_T_BYTES = 7     # uvarint length + raw
_T_LIST = 8      # uvarint count + values
_T_DICT = 9      # uvarint count + (key value)*

_F64 = struct.Struct("<d")


def encode_value(value: object, out: bytearray) -> None:
    """Append one tagged value to ``out``."""
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif type(value) is int:
        if value >= 0:
            out.append(_T_INT_POS)
            _encode_uvarint(value, out)
        else:
            out.append(_T_INT_NEG)
            _encode_uvarint(-value, out)
    elif type(value) is float:
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _encode_uvarint(len(raw), out)
        out += raw
    elif type(value) is bytes:
        out.append(_T_BYTES)
        _encode_uvarint(len(value), out)
        out += value
    elif type(value) in (list, tuple):
        out.append(_T_LIST)
        _encode_uvarint(len(value), out)  # type: ignore[arg-type]
        for item in value:  # type: ignore[union-attr]
            encode_value(item, out)
    elif type(value) is dict:
        out.append(_T_DICT)
        _encode_uvarint(len(value), out)
        for key, item in value.items():
            if type(key) is not str:
                raise StoreCodecError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
            encode_value(key, out)
            encode_value(item, out)
    else:
        # numpy scalars and friends: reduce to the nearest Python type
        # so re-reading yields plain numbers (equality still holds).
        item = getattr(value, "item", None)
        if callable(item):
            encode_value(item(), out)
            return
        raise StoreCodecError(
            f"value of type {type(value).__name__} is not storable"
        )


def decode_value(buf: bytes, off: int) -> tuple[object, int]:
    """Decode one tagged value at ``off``; returns ``(value, next_off)``."""
    if off >= len(buf):
        raise StoreCodecError("truncated value")
    tag = buf[off]
    off += 1
    if tag == _T_NONE:
        return None, off
    if tag == _T_TRUE:
        return True, off
    if tag == _T_FALSE:
        return False, off
    if tag == _T_INT_POS:
        return _decode_uvarint(buf, off)
    if tag == _T_INT_NEG:
        value, off = _decode_uvarint(buf, off)
        return -value, off
    if tag == _T_FLOAT:
        if off + 8 > len(buf):
            raise StoreCodecError("truncated float")
        return _F64.unpack_from(buf, off)[0], off + 8
    if tag in (_T_STR, _T_BYTES):
        length, off = _decode_uvarint(buf, off)
        if off + length > len(buf):
            raise StoreCodecError("truncated string")
        raw = buf[off: off + length]
        off += length
        return (raw.decode("utf-8") if tag == _T_STR else bytes(raw)), off
    if tag == _T_LIST:
        count, off = _decode_uvarint(buf, off)
        items = []
        for _ in range(count):
            item, off = decode_value(buf, off)
            items.append(item)
        return items, off
    if tag == _T_DICT:
        count, off = _decode_uvarint(buf, off)
        mapping = {}
        for _ in range(count):
            key, off = decode_value(buf, off)
            item, off = decode_value(buf, off)
            mapping[key] = item  # type: ignore[index]
        return mapping, off
    raise StoreCodecError(f"unknown value tag {tag}")


# ----------------------------------------------------------------------
# records and frames


def encode_record(kind: int, seq: int, fields: tuple) -> bytes:
    """One framed record: header + (kind, seq, fields...) payload."""
    expected = RECORD_FIELDS.get(kind)
    if expected is None:
        raise StoreCodecError(f"unknown record kind {kind}")
    if len(fields) != expected:
        raise StoreCodecError(
            f"record kind {kind} takes {expected} fields, got {len(fields)}"
        )
    payload = bytearray()
    payload.append(kind)
    _encode_uvarint(seq, payload)
    for value in fields:
        encode_value(value, payload)
    return frame(bytes(payload))


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


def decode_record(payload: bytes) -> tuple[int, int, list]:
    """Decode one frame payload into ``(kind, seq, fields)``."""
    if not payload:
        raise StoreCodecError("empty record payload")
    kind = payload[0]
    expected = RECORD_FIELDS.get(kind)
    if expected is None:
        raise StoreCodecError(f"unknown record kind {kind}")
    seq, off = _decode_uvarint(payload, 1)
    fields = []
    for _ in range(expected):
        value, off = decode_value(payload, off)
        fields.append(value)
    if off != len(payload):
        raise StoreCodecError(
            f"record kind {kind} has {len(payload) - off} trailing bytes"
        )
    return kind, seq, fields
