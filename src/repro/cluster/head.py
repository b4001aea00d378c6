"""Head-side supervisor: owns the node pool and routes chunk traffic.

The supervisor is the hub of the cluster's star topology.  It listens
on one TCP port, admits node daemons through the ``hello``/``welcome``
handshake (protocol string and CPython feature version must match —
shipped programs are marshalled byte-code), and then serves the
backend one *chunk* at a time: ship programs, route inter-node data
frames by destination rank, collect per-rank results, and tear the
chunk down on success or failure.

Failure detection is two-layered, both surfacing as the same typed
:class:`repro.machine.faults.RankFailure` the mp backend raises:

* a node socket hitting EOF (daemon crashed, host died, SIGKILL) fails
  that node's still-pending ranks immediately;
* a node that stays silent past ``hb_timeout`` — no heartbeat, no
  result, no data — is declared dead even with the socket nominally
  open (half-open TCP after a power loss).

A dead node leaves the pool for good; the next chunk's placement
simply spans the survivors, which is what makes the backend's elastic
shrink-and-continue recovery possible without any rejoin choreography.
"""

from __future__ import annotations

import math
import os
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from repro.backend.api import BackendResult
from repro.backend.mp import ChunkOutcome
from repro.backend.proc import ABORT_GRACE, EXIT_GRACE, TERM_GRACE, wait
from repro.cluster.placement import Placement
from repro.cluster.protocol import (
    CLUSTER_PROTOCOL_VERSION,
    ClusterProtocolError,
    HandshakeError,
    recv_message,
    send_control,
    send_data,
    send_payload,
)

__all__ = ["ClusterSupervisor", "NodeHandle", "HB_INTERVAL", "HB_TIMEOUT"]

#: Heartbeat cadence pushed to the nodes, and the silence span after
#: which a node is declared dead — one pair for spawned and
#: operator-managed pools alike.
HB_INTERVAL = 0.5
HB_TIMEOUT = 5.0


@dataclass
class NodeHandle:
    """One admitted node daemon, as the head sees it."""

    node_id: int
    sock: socket.socket
    name: str
    host: str
    pid: int
    proc: subprocess.Popen | None = None
    alive: bool = True
    last_seen: float = field(default_factory=time.monotonic)


class ClusterSupervisor:
    """Launch/admit node daemons and run chunks across them.

    Parameters
    ----------
    nnodes:
        Pool size to wait for before the first chunk may run.
    spawn:
        When true (the default, and what tests/CI use) the supervisor
        spawns ``nnodes`` local daemons itself, with the command an
        operator would run by hand on each host when it is false and
        the supervisor only listens: ``python -m repro node --connect
        HOST:PORT``.
    host / port:
        Listen address.  Port 0 picks a free port (read it back from
        :attr:`addr` to point manual nodes at it).
    hb_interval / hb_timeout:
        Heartbeat cadence pushed to nodes in ``welcome``, and the
        silence span after which a node is declared dead.
    """

    def __init__(
        self,
        nnodes: int = 2,
        *,
        spawn: bool = True,
        host: str = "127.0.0.1",
        port: int = 0,
        hb_interval: float = HB_INTERVAL,
        hb_timeout: float = HB_TIMEOUT,
        connect_timeout: float = 20.0,
    ) -> None:
        if nnodes < 1:
            raise ValueError(f"nnodes must be >= 1, got {nnodes}")
        self.nnodes = int(nnodes)
        self.spawn = bool(spawn)
        self.hb_interval = float(hb_interval)
        self.hb_timeout = float(hb_timeout)
        self.connect_timeout = float(connect_timeout)
        self.nodes: dict[int, NodeHandle] = {}
        self._spawned: list[subprocess.Popen] = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(self.nnodes + 2)
        self.addr: tuple[str, int] = self._listener.getsockname()[:2]
        self._started = False
        self._closed = False

    # ------------------------------------------------------------- pool

    def start(self) -> None:
        """Spawn (if configured) and admit the node pool."""
        if self._started:
            return
        if self.spawn:
            for i in range(self.nnodes):
                self._spawn_node(i)
        deadline = time.monotonic() + self.connect_timeout
        while len(self.nodes) < self.nnodes:
            if not wait([self._listener], deadline):
                self.close()
                raise HandshakeError(
                    f"only {len(self.nodes)}/{self.nnodes} node daemons "
                    f"connected within {self.connect_timeout:.0f}s"
                )
            self._admit(self._listener.accept()[0])
        self._started = True

    def _spawn_node(self, i: int) -> None:
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "node",
                "--connect", f"{self.addr[0]}:{self.addr[1]}",
                "--name", f"node{i}",
            ],
            env=env,
            stdin=subprocess.DEVNULL,
        )
        # The handle is attached to the NodeHandle at admit time by pid.
        self._spawned.append(proc)

    def _admit(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(30.0)
        msg = recv_message(sock)
        if msg is None or msg[0] != "control" or msg[1].get("op") != "hello":
            sock.close()
            raise HandshakeError("node connection did not open with hello")
        hello = msg[1]
        problems: list[str] = []
        if hello.get("protocol") != CLUSTER_PROTOCOL_VERSION:
            problems.append(
                f"protocol {hello.get('protocol')!r} != "
                f"{CLUSTER_PROTOCOL_VERSION!r}"
            )
        their_py = tuple(hello.get("python", ()))[:2]
        our_py = tuple(sys.version_info[:2])
        if their_py != our_py:
            problems.append(
                f"CPython {their_py} != head's {our_py} "
                "(shipped programs are marshalled byte-code)"
            )
        if problems:
            detail = "; ".join(problems)
            try:
                send_control(sock, {
                    "op": "welcome", "ok": False,
                    "error": {"type": "HandshakeError", "message": detail},
                })
            finally:
                sock.close()
            raise HandshakeError(f"node {hello.get('name')!r} rejected: {detail}")
        node_id = len(self.nodes)
        send_control(sock, {
            "op": "welcome", "ok": True,
            "node_id": node_id, "hb_interval": self.hb_interval,
        })
        handle = NodeHandle(
            node_id=node_id,
            sock=sock,
            name=str(hello.get("name", f"node{node_id}")),
            host=str(hello.get("host", "?")),
            pid=int(hello.get("pid", -1)),
        )
        for proc in self._spawned:
            if proc.pid == handle.pid:
                handle.proc = proc
        self.nodes[node_id] = handle

    def alive_ids(self) -> list[int]:
        return sorted(nid for nid, h in self.nodes.items() if h.alive)

    def _mark_dead(self, handle: NodeHandle, why: str) -> None:
        if not handle.alive:
            return
        handle.alive = False
        try:
            handle.sock.close()
        except OSError:  # pragma: no cover
            pass
        if handle.proc is not None:
            # Written off, so no polite rungs: SIGKILL is the one signal
            # a daemon stopped by SIGSTOP still acts on, and its workers
            # follow it (``_arm_deathwatch``).
            _reap([handle.proc], None)
        print(
            f"[repro cluster] node {handle.node_id} ({handle.name}) "
            f"lost: {why}",
            file=sys.stderr, flush=True,
        )

    # ------------------------------------------------------------ chunks

    def run_chunk(
        self,
        *,
        runid: str,
        machine: Any,
        nranks: int,
        placement: Placement,
        program_blobs: list[bytes],
        program_of_rank: list[int],
        config_sha: str,
        options: dict[str, Any],
        clocks: list[float],
        metrics: list[Any],
        tracer: Any,
        timeout: float | None,
    ) -> BackendResult:
        """Run one chunk to completion and return its result, extending
        ``tracer`` with the ranks' event logs (None: tracing is off).

        Ends as every measured chunk does (:class:`ChunkOutcome`): the
        worker's own exception for a program error (lowest rank wins,
        traceback attached as a note), :class:`RankFailure` for
        crashed/lost/timed-out ranks.
        """
        self.start()
        participants = [self.nodes[nid] for nid in placement.node_ids]
        if not all(h.alive for h in participants):
            dead = [h.node_id for h in participants if not h.alive]
            raise ClusterProtocolError(
                f"placement names dead node(s) {dead}"
            )
        launch = {
            "op": "launch",
            "runid": runid,
            "config_sha": config_sha,
            "nranks": nranks,
            "machine": machine,
            "placement": placement.to_wire(),
            "programs": program_blobs,
            "program_of_rank": program_of_rank,
            "options": options,
            "clocks": clocks,
            "metrics": metrics,
            "trace": tracer is not None,
        }
        t_start = time.monotonic()
        for h in participants:
            h.last_seen = t_start
            send_payload(h.sock, launch)

        node_of = placement.node_of_rank
        outcome = ChunkOutcome("cluster", nranks)

        def elapsed() -> float:
            return time.monotonic() - t_start

        def handle_msg(handle: NodeHandle, msg: tuple[str, Any]) -> None:
            kind, body = msg
            if kind == "data":
                dst, frame = body
                target = self.nodes.get(node_of[dst])
                if target is not None and target.alive:
                    try:
                        send_data(target.sock, dst, frame)
                    except OSError:
                        self._mark_dead(target, "send failed")
                return
            op = body.get("op")
            if op in ("rank_done", "rank_error", "rank_crash"):
                outcome.record(
                    int(body["rank"]), op.removeprefix("rank_"),
                    body.get("payload"), elapsed(),
                )
            elif op == "launch_failed":
                raise ClusterProtocolError(
                    f"node {handle.node_id} refused launch: {body.get('error')}"
                )

        run_deadline = math.inf if timeout is None else t_start + timeout
        try:
            while True:
                now = time.monotonic()
                if now >= run_deadline:
                    outcome.fail(outcome.pending, elapsed())
                for h in participants:
                    if h.alive and now >= h.last_seen + self.hb_timeout:
                        self._mark_dead(
                            h, f"no heartbeat for {self.hb_timeout:.0f}s"
                        )
                # However a node was lost (silence, EOF, a failed send),
                # this is where its still-pending ranks fail.
                lost = {h.node_id for h in participants if not h.alive}
                if lost:
                    outcome.fail(
                        (r for r in range(nranks) if node_of[r] in lost),
                        elapsed(),
                    )
                if outcome.finished:
                    break
                # Sleep until a frame arrives, the run times out or the
                # quietest node's heartbeat expires — whichever is first.
                live = [h for h in participants if h.alive]
                ready = wait([h.sock for h in live], min(
                    run_deadline,
                    min(h.last_seen for h in live) + self.hb_timeout,
                ))
                for h in [h for h in live if h.sock in ready]:
                    while h.alive and select.select([h.sock], [], [], 0)[0]:
                        msg = self._recv(h)
                        if msg is not None:
                            handle_msg(h, msg)
        except BaseException:
            self._end_chunk(participants, runid, clean=False)
            raise
        self._end_chunk(participants, runid, clean=outcome.clean)
        return outcome.result(tracer)

    def _recv(self, h: NodeHandle) -> tuple[str, Any] | None:
        """One frame from a node; ``None`` — and the node marked dead —
        when its socket fails or has closed."""
        try:
            msg = recv_message(h.sock)
        except (OSError, ClusterProtocolError) as exc:
            self._mark_dead(h, f"recv failed: {exc}")
            return None
        if msg is None:
            self._mark_dead(h, "connection closed")
        else:
            h.last_seen = time.monotonic()
        return msg

    def _end_chunk(
        self, participants: list[NodeHandle], runid: str, clean: bool
    ) -> None:
        """Tell every live participant the chunk is over — released
        (``exit_chunk``) or aborted — and await its acknowledgement,
        best-effort (late data frames in flight are dropped)."""
        # The abort span covers a node's whole abort ladder plus a
        # margin: a rank that has to be SIGKILLed does not make its node
        # miss the ack.
        op, ack, span = (
            ("exit_chunk", "chunk_done", EXIT_GRACE)
            if clean
            else ("abort", "chunk_aborted", ABORT_GRACE + TERM_GRACE + 1.0)
        )
        for h in participants:
            if not h.alive:
                continue
            try:
                send_control(h.sock, {"op": op, "runid": runid})
            except OSError:
                self._mark_dead(h, f"{op} send failed")
        deadline = time.monotonic() + span
        waiting = [h for h in participants if h.alive]
        while waiting:
            ready = wait([h.sock for h in waiting], deadline)
            if not ready:
                break
            for h in [h for h in waiting if h.sock in ready]:
                msg = self._recv(h)
                if msg is None or (
                    msg[0] == "control" and msg[1].get("op") == ack
                ):
                    waiting.remove(h)

    # ------------------------------------------------------------- close

    def close(self) -> None:
        """Shut the pool down; idempotent."""
        if self._closed:
            return
        self._closed = True
        for h in self.nodes.values():
            if not h.alive:
                continue
            try:
                send_control(h.sock, {"op": "shutdown"})
            except OSError:
                pass
            try:
                h.sock.close()
            except OSError:  # pragma: no cover
                pass
            h.alive = False
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        _reap(self._spawned, 5.0)

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def _reap(procs: list[subprocess.Popen], grace: float | None) -> None:
    """The ``Popen`` stop ladder (node daemons are the operator's own
    command, not forked children, so :func:`repro.backend.proc.stop`
    does not fit them): all ``procs`` share each rung's deadline —
    ``grace`` seconds to exit, SIGTERM, 2 s more — and every path ends
    in SIGKILL and a reaped process.  ``grace=None`` skips the polite
    rungs."""
    if grace is not None:
        _wait_all(procs, grace)
        for p in procs:
            p.terminate()  # like kill(): a no-op once the process is reaped
        _wait_all(procs, 2.0)
    for p in procs:
        p.kill()
        p.wait()


def _wait_all(procs: list[subprocess.Popen], seconds: float) -> None:
    deadline = time.monotonic() + seconds
    for p in procs:
        try:
            p.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
