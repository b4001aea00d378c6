"""Length-framed wire protocol between the cluster head and node daemons.

One TCP connection per node daemon carries three frame kinds, each
``kind byte + 4-byte big-endian body length + body``:

``J`` (control, JSON)
    Small structured control messages: the ``hello``/``welcome``
    handshake (protocol version, CPython version, node identity),
    ``hb`` heartbeats on the reserved control channel, ``ready`` /
    ``abort`` / ``exit_chunk`` / ``shutdown`` and their
    acknowledgements.  Capped at :data:`MAX_CONTROL_FRAME` —
    mirroring the ``repro.serve`` framing discipline, an oversized or
    malformed control frame is a typed error, never a raw traceback.
``P`` (payload, pickle)
    Control messages that must carry binary cargo: ``launch`` (pickled
    rank programs, machine spec, per-rank metrics rows) and the
    per-rank events ``rank_done`` / ``rank_error`` / ``rank_crash``.  Head and nodes are
    mutually trusted (the head spawns the nodes, or an operator starts
    them against a head they own), so pickle is acceptable here; the
    handshake's version checks keep it compatible.
``B`` (data)
    One rank-to-rank message frame in transit: 4-byte big-endian
    destination rank followed by the *verbatim* mp-engine frame bytes.
    The head routes these by destination; neither the head nor the
    daemons ever unpickle user payloads in flight.

Framing errors are typed (:class:`ClusterProtocolError`,
:class:`FrameTooLarge`, :class:`HandshakeError`) and a clean EOF is
``None`` from :func:`recv_message` — the caller decides whether that
is a graceful shutdown or a dead peer.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import socket
import struct
from typing import Any, Iterable

__all__ = [
    "CLUSTER_PROTOCOL_VERSION",
    "MAX_CONTROL_FRAME",
    "MAX_BULK_FRAME",
    "ClusterProtocolError",
    "FrameTooLarge",
    "HandshakeError",
    "send_control",
    "send_payload",
    "send_data",
    "recv_message",
    "parse_hostport",
    "blobs_sha",
]

#: Bumped on every incompatible wire change; ``hello``/``welcome``
#: must agree exactly.  /2: ``launch`` no longer carries ``clocks``
#: (each rank resumes at its carried row's ``final_clock``).  /3: nor
#: ``options`` (the worker transport settings are constants), and a
#: data frame is one pickle, restaged by a daemon without opening it.
CLUSTER_PROTOCOL_VERSION = "repro-cluster/3"

#: Control (JSON) frames are tiny; a megabyte of headroom means the
#: cap only ever trips on garbage or abuse (same policy as serve).
MAX_CONTROL_FRAME = 1 << 20

#: Pickle/data frames carry program blobs and user payloads; 1 GiB is
#: far above anything the engine ships while still catching a
#: corrupted length word before it turns into an allocation bomb.
MAX_BULK_FRAME = 1 << 30

_KIND_CONTROL = b"J"
_KIND_PAYLOAD = b"P"
_KIND_DATA = b"B"

_LEN = struct.Struct(">I")
_DST = struct.Struct(">I")


class ClusterProtocolError(ValueError):
    """A frame violated the cluster wire contract."""


class FrameTooLarge(ClusterProtocolError):
    """A frame exceeded its size cap (the connection must close)."""


class HandshakeError(ClusterProtocolError):
    """Version or identity mismatch during the hello/welcome exchange."""


def _send_frame(sock: socket.socket, kind: bytes, body: bytes) -> None:
    sock.sendall(kind + _LEN.pack(len(body)) + body)


def send_control(sock: socket.socket, obj: dict[str, Any]) -> None:
    """Send one JSON control frame."""
    try:
        body = json.dumps(obj, separators=(",", ":"), allow_nan=False).encode()
    except (TypeError, ValueError) as exc:
        raise ClusterProtocolError(f"unencodable control frame: {exc}") from exc
    if len(body) > MAX_CONTROL_FRAME:
        raise FrameTooLarge(
            f"control frame of {len(body)} bytes exceeds the "
            f"{MAX_CONTROL_FRAME}-byte cap"
        )
    _send_frame(sock, _KIND_CONTROL, body)


def send_payload(sock: socket.socket, obj: dict[str, Any]) -> None:
    """Send one pickled control frame (launch / results)."""
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > MAX_BULK_FRAME:
        raise FrameTooLarge(
            f"payload frame of {len(body)} bytes exceeds the "
            f"{MAX_BULK_FRAME}-byte cap"
        )
    _send_frame(sock, _KIND_PAYLOAD, body)


def send_data(sock: socket.socket, dst: int, frame: bytes) -> None:
    """Send one in-transit rank message frame addressed to ``dst``."""
    if len(frame) + _DST.size > MAX_BULK_FRAME:
        raise FrameTooLarge(
            f"data frame of {len(frame)} bytes exceeds the "
            f"{MAX_BULK_FRAME}-byte cap"
        )
    _send_frame(sock, _KIND_DATA, _DST.pack(dst) + frame)


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes | None:
    """Read exactly ``nbytes``; ``None`` on EOF at a frame boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < nbytes:
        chunk = sock.recv(min(nbytes - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise ClusterProtocolError(
                f"connection closed mid-frame ({got}/{nbytes} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_message(
    sock: socket.socket,
) -> tuple[str, Any] | None:
    """Receive one frame; ``None`` on clean EOF.

    Returns ``("control", dict)``, ``("payload", dict)`` or
    ``("data", (dst, frame_bytes))``.  Raises
    :class:`ClusterProtocolError` for unknown kinds, size-cap
    violations and mid-frame EOF.
    """
    header = _recv_exact(sock, 1 + _LEN.size)
    if header is None:
        return None
    kind, length = header[:1], _LEN.unpack(header[1:])[0]
    cap = MAX_CONTROL_FRAME if kind == _KIND_CONTROL else MAX_BULK_FRAME
    if length > cap:
        raise FrameTooLarge(
            f"incoming {kind!r} frame of {length} bytes exceeds the "
            f"{cap}-byte cap"
        )
    body = _recv_exact(sock, length) if length else b""
    if body is None and length:
        raise ClusterProtocolError("connection closed before frame body")
    assert body is not None
    if kind == _KIND_CONTROL:
        try:
            obj = json.loads(body.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ClusterProtocolError(
                f"control frame is not valid JSON: {exc}"
            ) from exc
        if not isinstance(obj, dict):
            raise ClusterProtocolError(
                f"control frame must be a JSON object, got "
                f"{type(obj).__name__}"
            )
        return ("control", obj)
    if kind == _KIND_PAYLOAD:
        try:
            obj = pickle.loads(body)
        except Exception as exc:
            raise ClusterProtocolError(
                f"payload frame failed to unpickle: {exc}"
            ) from exc
        if not isinstance(obj, dict):
            raise ClusterProtocolError(
                f"payload frame must be a dict, got {type(obj).__name__}"
            )
        return ("payload", obj)
    if kind == _KIND_DATA:
        if len(body) < _DST.size:
            raise ClusterProtocolError("data frame shorter than its header")
        dst = _DST.unpack(body[: _DST.size])[0]
        return ("data", (dst, body[_DST.size:]))
    raise ClusterProtocolError(f"unknown frame kind {kind!r}")


def parse_hostport(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (the ``repro node --connect`` argument)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ClusterProtocolError(
            f"expected HOST:PORT, got {text!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ClusterProtocolError(
            f"bad port in {text!r}"
        ) from None


def blobs_sha(blobs: Iterable[bytes], extra: bytes = b"") -> str:
    """Content identity of a chunk's pickled programs (the launch
    frame's ``config_sha``): nodes verify what they received is what
    the head declared."""
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    h.update(extra)
    return h.hexdigest()
