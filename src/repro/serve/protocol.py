"""Line-delimited JSON protocol spoken over the daemon's unix socket.

One frame = one JSON object on one ``\\n``-terminated UTF-8 line, at
most :data:`MAX_FRAME` bytes including the terminator.  Requests carry
an ``op`` field; responses carry ``ok`` (and, on failure, an ``error``
object ``{"kind", "message", "detail"}``).  The framing is deliberately
dumb: any malformed line — broken UTF-8, invalid JSON, a non-object, a
missing ``op`` — is answered with a ``ProtocolError`` response and the
connection stays open, so a confused (or fuzzing) client can never
wedge the daemon.  Only two events close a connection from the server
side: EOF from the peer and an oversized frame (the one case where
resynchronising on line boundaries is impossible).

Result payloads ride *inside* a response frame as a JSON string field
(``payload``) holding the canonical payload text verbatim — JSON string
escaping is transparent, so the client recovers the exact cached bytes
and byte identity survives the wire.

See ``docs/serving.md`` for the full request/response catalogue.
"""

from __future__ import annotations

import errno
import json
import sys
from typing import Any, BinaryIO

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "MAX_SOCKET_PATH",
    "ProtocolError",
    "FrameTooLarge",
    "SocketPathTooLong",
    "check_socket_path",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "ok_response",
    "error_response",
]

#: Protocol version; servers reply with it to ``ping``.
PROTOCOL_VERSION = "repro-serve/2"

#: Hard cap on one frame, terminator included.  Result payloads are a
#: few KiB; a megabyte of headroom means the cap only ever trips on
#: garbage or abuse.
MAX_FRAME = 1 << 20


class ProtocolError(ValueError):
    """A frame violated the wire contract (recoverable per-frame)."""


class FrameTooLarge(ProtocolError):
    """A frame exceeded :data:`MAX_FRAME` (connection must close)."""


#: Usable bytes in a ``sockaddr_un`` path.  The kernel's buffer is 108
#: bytes on Linux and 104 on the BSDs/macOS; one byte goes to the NUL
#: terminator.  Paths longer than this fail to bind/connect with a raw
#: ``OSError`` whose message never names the path — worth a typed error.
MAX_SOCKET_PATH = 103 if sys.platform == "darwin" else 107


class SocketPathTooLong(OSError):
    """A unix socket path exceeds the OS ``sockaddr_un`` limit.

    Subclasses :class:`OSError` (with ``ENAMETOOLONG``) so existing
    ``except OSError`` handlers keep working, but carries an actionable
    message naming the offending path and its byte length — instead of
    the kernel's bare ``AF_UNIX path too long``.
    """

    def __init__(self, path: str) -> None:
        encoded = len(str(path).encode())
        super().__init__(
            errno.ENAMETOOLONG,
            f"unix socket path is {encoded} bytes, over the OS limit of "
            f"{MAX_SOCKET_PATH}: {path!r} — choose a shorter --socket "
            f"path (e.g. under /tmp)",
        )
        self.path = str(path)


def check_socket_path(path: str) -> str:
    """Validate a unix socket path's length; returns it unchanged.

    Raises :class:`SocketPathTooLong` *before* any bind/connect so both
    the server and the client report the same typed, path-naming error.
    """
    if len(str(path).encode()) > MAX_SOCKET_PATH:
        raise SocketPathTooLong(path)
    return str(path)


def encode_frame(obj: dict[str, Any]) -> bytes:
    """Serialise one frame; raises :class:`ProtocolError` when ``obj``
    cannot be represented (non-finite floats, exotic types) or exceeds
    the frame cap."""
    try:
        text = json.dumps(obj, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable frame: {exc}") from exc
    data = text.encode() + b"\n"
    if len(data) > MAX_FRAME:
        raise FrameTooLarge(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME}-byte cap"
        )
    return data


def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one received line into a frame dict."""
    try:
        obj = json.loads(line.decode())
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"frame is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def read_frame(rfile: BinaryIO) -> dict[str, Any] | None:
    """Read one frame from a buffered binary stream.

    Returns ``None`` on clean EOF.  Raises :class:`FrameTooLarge` when
    the line blows the cap (the caller must close the connection — the
    stream can no longer be resynchronised) and :class:`ProtocolError`
    for per-line garbage (the caller may answer and keep reading).
    """
    line = rfile.readline(MAX_FRAME + 1)
    if not line:
        return None
    if len(line) > MAX_FRAME:
        raise FrameTooLarge(
            f"incoming frame exceeds the {MAX_FRAME}-byte cap"
        )
    return decode_frame(line)


def ok_response(**fields: Any) -> dict[str, Any]:
    out: dict[str, Any] = {"ok": True}
    out.update(fields)
    return out


def error_response(
    kind: str, message: str, detail: dict | None = None, **fields: Any
) -> dict[str, Any]:
    out: dict[str, Any] = {
        "ok": False,
        "error": {"kind": kind, "message": message, "detail": detail or {}},
    }
    out.update(fields)
    return out
