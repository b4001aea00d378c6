"""Wire-protocol unit tests: framing, caps, truncation, addresses,
the launch frame's program digest and the head's handshake checks.

Socketpair and loopback tests — no daemons, no forks — so this file
runs in the default (unmarked) tier.
"""

from __future__ import annotations

import socket
import sys
import threading

import pytest

from repro.cluster.head import ClusterSupervisor
from repro.cluster.protocol import (
    CLUSTER_PROTOCOL_VERSION,
    MAX_CONTROL_FRAME,
    ClusterProtocolError,
    FrameTooLarge,
    HandshakeError,
    blobs_sha,
    parse_hostport,
    recv_message,
    send_control,
    send_data,
    send_payload,
)


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestRoundTrips:
    def test_control_frame(self, pair):
        a, b = pair
        send_control(a, {"op": "hb", "node": 3})
        assert recv_message(b) == ("control", {"op": "hb", "node": 3})

    def test_payload_frame_carries_binary(self, pair):
        a, b = pair
        blob = bytes(range(256)) * 10
        send_payload(a, {"op": "launch", "blob": blob})
        kind, obj = recv_message(b)
        assert kind == "payload"
        assert obj["blob"] == blob

    def test_data_frame_verbatim(self, pair):
        a, b = pair
        frame = b"\x00engine-frame-bytes\xff"
        send_data(a, 7, frame)
        assert recv_message(b) == ("data", (7, frame))

    def test_interleaved_kinds_stay_ordered(self, pair):
        a, b = pair
        send_control(a, {"op": "ready"})
        send_data(a, 0, b"x" * 3)
        send_payload(a, {"op": "rank_done", "rank": 1})
        assert recv_message(b)[0] == "control"
        assert recv_message(b)[0] == "data"
        assert recv_message(b)[0] == "payload"

    def test_large_data_frame(self, pair):
        a, b = pair
        frame = b"z" * (4 << 20)  # over any single recv() chunk
        t = threading.Thread(target=send_data, args=(a, 2, frame))
        t.start()
        kind, (dst, got) = recv_message(b)
        t.join()
        assert kind == "data" and dst == 2 and got == frame


class TestErrors:
    def test_clean_eof_is_none(self, pair):
        a, b = pair
        a.close()
        assert recv_message(b) is None

    def test_mid_frame_eof_is_typed(self, pair):
        a, b = pair
        a.sendall(b"J" + (100).to_bytes(4, "big") + b"only-ten-b")
        a.close()
        with pytest.raises(ClusterProtocolError, match="mid-frame"):
            recv_message(b)

    def test_oversized_control_frame_refused_on_send(self, pair):
        a, _ = pair
        with pytest.raises(FrameTooLarge):
            send_control(a, {"pad": "x" * (MAX_CONTROL_FRAME + 1)})

    def test_oversized_incoming_length_word(self, pair):
        a, b = pair
        a.sendall(b"J" + (MAX_CONTROL_FRAME + 1).to_bytes(4, "big"))
        with pytest.raises(FrameTooLarge):
            recv_message(b)

    def test_unknown_kind(self, pair):
        a, b = pair
        a.sendall(b"Q" + (0).to_bytes(4, "big"))
        with pytest.raises(ClusterProtocolError, match="unknown frame kind"):
            recv_message(b)

    def test_control_garbage_json(self, pair):
        a, b = pair
        a.sendall(b"J" + (4).to_bytes(4, "big") + b"nope")
        with pytest.raises(ClusterProtocolError, match="JSON"):
            recv_message(b)

    def test_unencodable_control(self, pair):
        a, _ = pair
        with pytest.raises(ClusterProtocolError, match="unencodable"):
            send_control(a, {"bad": float("nan")})


class TestParseHostport:
    def test_plain(self):
        assert parse_hostport("10.0.0.5:9100") == ("10.0.0.5", 9100)

    def test_hostname(self):
        assert parse_hostport("head.local:80") == ("head.local", 80)

    @pytest.mark.parametrize("bad", ["nohost", ":123", "h:port", "h:"])
    def test_malformed(self, bad):
        with pytest.raises(ClusterProtocolError):
            parse_hostport(bad)


def test_blobs_sha_is_order_and_content_sensitive():
    a, b = b"blob-a", b"blob-b"
    assert blobs_sha([a, b]) == blobs_sha([a, b])
    assert blobs_sha([a, b]) != blobs_sha([b, a])
    assert blobs_sha([a]) != blobs_sha([a], extra=b"salt")


def test_handshake_refuses_other_cpython_minor():
    """Programs resolve their code by import, so a node on another
    CPython feature version is turned away at ``hello``."""
    sup = ClusterSupervisor(1, spawn=False)
    node = socket.create_connection(sup.addr)
    try:
        major, minor = sys.version_info[:2]
        send_control(node, {
            "op": "hello", "protocol": CLUSTER_PROTOCOL_VERSION,
            "python": [major, minor + 1, 0], "name": "odd",
        })
        with pytest.raises(HandshakeError, match="CPython"):
            sup.start()
        kind, welcome = recv_message(node)
        assert kind == "control" and welcome["ok"] is False
        assert welcome["error"]["type"] == "HandshakeError"
    finally:
        node.close()
        sup.close()


def test_handshake_refuses_the_previous_protocol_by_name():
    """A ``repro-cluster/2`` node would read ``launch["options"]``, which
    ``/3`` no longer sends; it is turned away at ``hello`` instead."""
    sup = ClusterSupervisor(1, spawn=False)
    node = socket.create_connection(sup.addr)
    try:
        send_control(node, {
            "op": "hello", "protocol": "repro-cluster/2",
            "python": list(sys.version_info[:3]), "name": "old",
        })
        with pytest.raises(HandshakeError, match="'repro-cluster/2'"):
            sup.start()
        kind, welcome = recv_message(node)
        assert kind == "control" and welcome["ok"] is False
        assert "repro-cluster/3" in welcome["error"]["message"]
    finally:
        node.close()
        sup.close()


def test_silent_connection_is_a_handshake_error_that_closes(monkeypatch):
    """A connection that never says ``hello`` fails ``start()`` with
    ``HandshakeError`` within ``HELLO_TIMEOUT`` and closes the
    supervisor (listener included)."""
    monkeypatch.setattr("repro.cluster.head.HELLO_TIMEOUT", 0.5)
    sup = ClusterSupervisor(1, spawn=False)
    node = socket.create_connection(sup.addr)
    try:
        with pytest.raises(HandshakeError, match="no hello"):
            sup.start()
        assert sup._closed
        assert sup._listener.fileno() == -1
    finally:
        node.close()
        sup.close()
