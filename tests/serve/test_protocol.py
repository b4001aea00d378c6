"""Wire protocol: framing unit tests plus live-server fuzzing.

The fuzz battery throws malformed garbage — broken UTF-8, invalid
JSON, non-objects, unknown ops, oversized frames, random bytes — at a
running daemon and asserts the daemon (a) answers every line-shaped
frame with a typed error, (b) never wedges, and (c) still serves a
well-formed request on the same or a fresh connection afterwards.
"""

import errno
import io
import json
import os
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import MAX_FRAME, ServeClient
from repro.serve.protocol import (
    MAX_SOCKET_PATH,
    FrameTooLarge,
    ProtocolError,
    SocketPathTooLong,
    check_socket_path,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    read_frame,
)

from tests.serve.conftest import tiny_spec


class TestFraming:
    def test_round_trip(self):
        frame = {"op": "ping", "x": [1, 2.5, None, "s"]}
        assert decode_frame(encode_frame(frame).rstrip(b"\n")) == frame

    def test_encode_rejects_nan(self):
        with pytest.raises(ProtocolError, match="unencodable"):
            encode_frame({"x": float("nan")})

    def test_encode_rejects_exotic_types(self):
        with pytest.raises(ProtocolError, match="unencodable"):
            encode_frame({"x": object()})

    def test_encode_rejects_oversized(self):
        with pytest.raises(FrameTooLarge):
            encode_frame({"x": "a" * MAX_FRAME})

    def test_decode_rejects_bad_utf8(self):
        with pytest.raises(ProtocolError, match="not UTF-8"):
            decode_frame(b"\xff\xfe{}")

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_frame(b"{nope")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame(b"[1,2,3]")

    def test_read_frame_eof(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_read_frame_oversized(self):
        big = b"x" * (MAX_FRAME + 10) + b"\n"
        with pytest.raises(FrameTooLarge):
            read_frame(io.BytesIO(big))

    def test_responses(self):
        assert ok_response(a=1) == {"ok": True, "a": 1}
        err = error_response("Kind", "msg", {"d": 1}, id=7)
        assert err["ok"] is False
        assert err["error"] == {"kind": "Kind", "message": "msg",
                                "detail": {"d": 1}}
        assert err["id"] == 7


class TestSocketPathLimit:
    """Over-long unix socket paths raise the typed error before any
    bind/connect — never the kernel's bare ``AF_UNIX path too long``."""

    LONG = "/tmp/" + "x" * (MAX_SOCKET_PATH + 1) + ".sock"

    def test_short_path_passes_through(self):
        assert check_socket_path("/tmp/ok.sock") == "/tmp/ok.sock"

    def test_over_limit_raises_typed_oserror(self):
        with pytest.raises(SocketPathTooLong) as ei:
            check_socket_path(self.LONG)
        exc = ei.value
        assert isinstance(exc, OSError)
        assert exc.errno == errno.ENAMETOOLONG
        assert exc.path == self.LONG
        # The message is actionable: names the path and the OS limit.
        assert self.LONG in str(exc)
        assert str(MAX_SOCKET_PATH) in str(exc)

    def test_client_rejects_at_construction(self):
        with pytest.raises(SocketPathTooLong):
            ServeClient(self.LONG)

    def test_server_rejects_before_bind(self):
        from repro.serve.server import ReproServer

        server = ReproServer(self.LONG, workers=1)
        with pytest.raises(SocketPathTooLong):
            server._bind()
        assert not os.path.exists(self.LONG)


def _raw_exchange(path: str, data: bytes, nlines: int = 1) -> list[bytes]:
    """Send raw bytes, read back up to ``nlines`` response lines."""
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(10.0)
    s.connect(path)
    try:
        s.sendall(data)
        rfile = s.makefile("rb")
        return [rfile.readline(MAX_FRAME + 1) for _ in range(nlines)]
    finally:
        s.close()


class TestLiveServerFuzz:
    MALFORMED = [
        b"\n",  # empty frame
        b"{broken json\n",
        b"[1,2,3]\n",  # valid JSON, wrong shape
        b'"just a string"\n',
        b"42\n",
        b"null\n",
        b'{"no_op_field": true}\n',
        b'{"op": 17}\n',  # op of wrong type
        b'{"op": "nosuchop"}\n',
        b'{"op": "submit"}\n',  # submit with no job
        b'{"op": "submit", "job": "not a dict"}\n',
        b'{"op": "submit", "job": {"case": "nosuch"}}\n',
        b'{"op": "wait"}\n',  # wait with no id/sha
        b'{"op": "result", "id": 999999}\n',
        b"\xff\xfe\xfd garbage bytes\n",
    ]

    def test_each_malformed_frame_gets_typed_error(self, server):
        for frame in self.MALFORMED:
            (line,) = _raw_exchange(server.socket_path, frame)
            assert line, f"no response to {frame!r}"
            resp = json.loads(line)
            assert resp["ok"] is False, frame
            assert resp["error"]["kind"], frame

    def test_connection_survives_garbage_then_serves(self, server):
        """Per-line garbage must not close the connection."""
        data = b"{broken\n" + b'{"op": "ping"}\n'
        bad, good = _raw_exchange(server.socket_path, data, nlines=2)
        assert json.loads(bad)["ok"] is False
        ping = json.loads(good)
        assert ping["ok"] is True
        assert ping["protocol"] == "repro-serve/2"

    def test_oversized_frame_closes_connection(self, server):
        data = b"x" * (MAX_FRAME + 100) + b"\n"
        err, eof = _raw_exchange(server.socket_path, data, nlines=2)
        assert json.loads(err)["error"]["kind"] == "FrameTooLarge"
        assert eof == b""  # server hung up

    def test_seq_echo(self, server):
        (line,) = _raw_exchange(
            server.socket_path, b'{"op": "ping", "seq": 42}\n'
        )
        assert json.loads(line)["seq"] == 42

    def test_server_still_works_after_fuzzing(self, server):
        for frame in self.MALFORMED:
            _raw_exchange(server.socket_path, frame)
        with ServeClient(server.socket_path) as c:
            rec = c.run(tiny_spec(), timeout=60)
            assert rec["state"] == "done"

    @given(junk=st.binary(min_size=1, max_size=200))
    @settings(
        max_examples=25, deadline=None,
        # One shared server across examples is exactly what we want.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_random_binary_never_wedges(self, junk):
        """Property: any newline-terminated junk gets *an* answer."""
        server = type(self)._hyp_server
        (line,) = _raw_exchange(
            server.socket_path, junk.replace(b"\n", b" ") + b"\n"
        )
        resp = json.loads(line)
        assert isinstance(resp["ok"], bool)

    @pytest.fixture(autouse=True)
    def _share_server(self, server):
        # Hypothesis forbids function-scoped fixtures inside @given, so
        # the property test reaches the server via a class attribute.
        type(self)._hyp_server = server
        yield
        type(self)._hyp_server = None
