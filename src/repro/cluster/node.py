"""``repro node`` — the per-host daemon of the cluster backend.

One daemon runs on every participating host.  It dials the head,
handshakes (protocol version + CPython version — programs arrive as
pickles that resolve their code by import, so head and node must run
the same interpreter feature version over the same checkout), then
serves *chunks*: for each ``launch`` it unpickles the programs, hosts
its ranks in the same :class:`repro.backend.mp.RankWorkers` group the
mp backend forks (one process per local rank, same control frames,
same stop / close / shared-memory sweep), pumps messages for the
duration, and stops the workers when the head says the chunk is over.

Data plane
----------
Workers run the very same primitive interpreter as the mp backend;
what differs is only where a frame goes:

* **local destination** — the frame goes straight down the peer's
  inbox pipe, shared-memory fast path included, exactly as mp;
* **remote destination** (no local inbox) — the frame rides the
  worker's *uplink* pipe to the daemon, which wraps it in a data frame
  and sends it to the head; the head routes it to the destination's
  daemon, which deposits it into the destination worker's inbox.
  Larger frames are restaged whole, as opaque bytes, through a local
  shared-memory segment on arrival so inbox pipe writes stay small (the
  same no-wedge argument the mp backend makes for its pipes); no daemon
  ever unpickles a data frame.

Mailbox semantics, sender sequence numbers and the canonical
``(src, seq)`` drain order are untouched — physics stays byte-identical
to ``sim`` and ``mp`` by the same argument the mp backend documents.

Control plane
-------------
Heartbeats flow daemon -> head on the reserved control channel at the
interval the ``welcome`` frame sets; the worker group's events —
results (``rank_done``), program errors (``rank_error``) and silent
worker deaths (``rank_crash``) — are forwarded as they happen.  A daemon that loses
its head aborts its workers and exits — orphaned rank workers see
their control pipe close and kill themselves.
"""

from __future__ import annotations

import os
import pickle
import select
import socket
import sys
import time
from typing import Any

from repro.backend.mp import RankWorkers, restage_frame
from repro.backend.proc import ABORT_GRACE, EXIT_GRACE, wait
from repro.cluster.protocol import (
    CLUSTER_PROTOCOL_VERSION,
    ClusterProtocolError,
    blobs_sha,
    recv_message,
    send_control,
    send_data,
    send_payload,
)

__all__ = ["NodeDaemon"]

#: Seconds a daemon tries to reach its head before it gives up.
DIAL_TIMEOUT = 30.0

#: Daemon-side deposits are restaged through shared memory above this
#: size so every inbox pipe write stays under POSIX ``PIPE_BUF`` (4096
#: on Linux): ``select`` reporting a pipe writable then *guarantees*
#: the write cannot block, which is what makes the daemon's routing
#: loop deadlock-free (a blocking deposit into a stalled worker would
#: otherwise stop heartbeats and frame routing for the whole node).
_PIPE_SAFE = 3072

#: How the head ends a chunk: its control op -> what the workers are
#: told, how long they get to leave, and the acknowledgement sent back.
_CHUNK_END = {
    "exit_chunk": ("exit", EXIT_GRACE, "chunk_done"),
    "abort": ("abort", ABORT_GRACE, "chunk_aborted"),
}


class _HeadLost(Exception):
    """The head connection died (EOF or socket error)."""


def _arm_deathwatch() -> None:
    """Tie a rank worker's life to its daemon (Linux ``PDEATHSIG``).

    Workers fork after every local pipe *and* the head socket exist, so
    each inherits the others' pipe ends and the daemon's TCP fd — a
    SIGKILLed daemon would leave workers holding the socket open (the
    head never sees EOF) and each other's control pipes open (nobody
    sees EOF there either).  ``PR_SET_PDEATHSIG`` cuts the knot: the
    kernel kills every worker the moment the daemon dies, which closes
    the socket and turns a killed node into a prompt EOF at the head.
    """
    try:
        import ctypes
        import signal

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # PR_SET_PDEATHSIG
        if os.getppid() == 1:  # daemon died before the watch was armed
            os._exit(4)
    except Exception:  # pragma: no cover - non-Linux fallback: the
        pass           # head's heartbeat timeout still catches the loss


class NodeDaemon:
    """One cluster node: connects to a head and hosts rank workers."""

    def __init__(
        self, host: str, port: int, *, name: str | None = None
    ) -> None:
        self.head_addr = (host, port)
        self.name = name or socket.gethostname()
        self.node_id = -1
        self.hb_interval = 1.0
        self._sock: socket.socket | None = None
        self._next_hb = 0.0
        self._restage_count = 0

    # ----------------------------------------------------------- logging

    def _log(self, msg: str) -> None:
        print(f"[repro node {self.name}] {msg}", file=sys.stderr, flush=True)

    # ------------------------------------------------------------ daemon

    def run(self) -> int:
        """Connect, handshake, serve chunks until shutdown.  Returns the
        process exit code (0 = clean shutdown from the head)."""
        try:
            self._sock = socket.create_connection(
                self.head_addr, timeout=DIAL_TIMEOUT
            )
        except OSError as exc:
            self._log(f"cannot reach head at {self.head_addr}: {exc}")
            return 1
        sock = self._sock
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            send_control(sock, {
                "op": "hello",
                "protocol": CLUSTER_PROTOCOL_VERSION,
                "python": list(sys.version_info[:3]),
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "name": self.name,
            })
            msg = recv_message(sock)
            if msg is None or msg[0] != "control":
                self._log("head closed the connection during handshake")
                return 1
            welcome = msg[1]
            if not welcome.get("ok", True):
                err = welcome.get("error", {})
                self._log(f"head refused handshake: {err.get('message', err)}")
                return 1
            self.node_id = int(welcome["node_id"])
            self.hb_interval = float(welcome.get("hb_interval", 1.0))
            self._next_hb = time.monotonic()
            self._log(
                f"joined head {self.head_addr[0]}:{self.head_addr[1]} "
                f"as node {self.node_id}"
            )
            return self._serve()
        except _HeadLost:
            self._log("head connection lost; exiting")
            return 1
        except ClusterProtocolError as exc:
            self._log(f"protocol error: {exc}")
            return 1
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    def _serve(self) -> int:
        sock = self._sock
        assert sock is not None
        while True:
            self._heartbeat()
            if not wait([sock], self._next_hb):
                continue
            msg = recv_message(sock)
            if msg is None:
                raise _HeadLost()
            kind, body = msg
            op = body.get("op")
            if kind == "control" and op == "shutdown":
                self._log("shutdown requested; exiting")
                return 0
            if kind == "payload" and op == "launch":
                self._chunk(body)
            # Anything else while idle (stray data from a chunk that
            # was just torn down, late aborts) is dropped.

    def _heartbeat(self) -> None:
        now = time.monotonic()
        if now < self._next_hb:
            return
        self._next_hb = now + self.hb_interval
        try:
            send_control(self._sock, {"op": "hb"})
        except OSError as exc:
            raise _HeadLost() from exc

    # ------------------------------------------------------------- chunk

    def _chunk(self, launch: dict[str, Any]) -> None:
        """Run one chunk: host my ranks in a worker group (whose engines
        route off-host frames up their uplinks), pump until it ends."""
        sock = self._sock
        assert sock is not None
        runid = launch["runid"]
        n = int(launch["nranks"])
        placement = list(launch["placement"])
        blobs = launch["programs"]
        index = launch["program_of_rank"]
        declared = launch["config_sha"]
        got = blobs_sha(blobs)
        if got != declared:
            send_control(sock, {
                "op": "launch_failed", "runid": runid,
                "error": f"program sha mismatch: head declared "
                         f"{declared[:12]}, received {got[:12]}",
            })
            return
        try:
            programs = [pickle.loads(b) for b in blobs]
        except Exception as exc:
            send_control(sock, {
                "op": "launch_failed", "runid": runid,
                "error": f"{type(exc).__name__}: {exc}",
            })
            return

        local = [r for r in range(n) if placement[r] == self.node_id]
        workers = RankWorkers(
            local, n, launch["machine"],
            {r: programs[index[r]] for r in local},
            runid=runid,
            metrics=launch["metrics"],
            trace=bool(launch["trace"]),
            worker_init=_arm_deathwatch,
        )
        try:
            send_control(sock, {"op": "ready", "runid": runid,
                                "config_sha": declared, "ranks": local})
            self._pump_chunk(runid, workers)
        finally:
            workers.close()

    def _pump_chunk(self, runid: str, workers: RankWorkers) -> None:
        """Route frames and forward worker events until the head ends
        the chunk (``exit_chunk``/``abort``) or dies."""
        sock = self._sock
        assert sock is not None
        writers, locks = workers.writers, workers.locks
        open_uplinks = dict(workers.uplinks)
        backlog: dict[int, list[bytes]] = {r: [] for r in workers.ranks}

        def deposit(dst: int, frame: bytes) -> None:
            """Queue a frame for a local inbox; never blocks.

            Oversized frames are restaged, unopened, through local
            shared memory first so each pipe write fits in one atomic
            ``PIPE_BUF`` chunk, then :func:`flush` only writes while
            ``select`` says the pipe can take it.
            """
            if writers[dst] is None:
                return  # stale frame for a rank we no longer host
            if len(frame) >= _PIPE_SAFE:
                self._restage_count += 1
                frame = restage_frame(
                    frame, runid, f"fw{self.node_id}_{self._restage_count}"
                )
            backlog[dst].append(frame)
            flush(dst)

        def flush(dst: int) -> None:
            q = backlog[dst]
            w = writers[dst]
            while q:
                _, writable, _ = select.select([], [w], [], 0)
                if not writable:
                    return
                with locks[dst]:
                    w.send_bytes(q.pop(0))

        while True:
            self._heartbeat()
            for r in workers.ranks:
                if backlog[r]:
                    flush(r)
            waitees: list[Any] = [sock]
            waitees += list(open_uplinks.values())
            waitees += workers.waitables()
            # Next heartbeat due — or, with a backlog, the 2 ms retry
            # of its flush (a retry interval, not a deadline).
            due = self._next_hb
            if any(backlog.values()):
                due = min(due, time.monotonic() + 0.002)
            ready = wait(waitees, due)

            # -- frames from the head (drained greedily) ----------------
            if sock in ready:
                while True:
                    r_, _, _ = select.select([sock], [], [], 0)
                    if not r_:
                        break
                    msg = recv_message(sock)
                    if msg is None:
                        raise _HeadLost()
                    kind, body = msg
                    if kind == "data":
                        dst, frame = body
                        deposit(dst, frame)
                    elif kind == "control" and body.get("op") in _CHUNK_END:
                        how, grace, ack = _CHUNK_END[body["op"]]
                        workers.stop(how, grace=grace)
                        send_control(sock, {"op": ack, "runid": runid})
                        return

            # -- frames from local workers ------------------------------
            for r, ur in list(open_uplinks.items()):
                try:
                    while ur.poll(0):
                        dst, frame = ur.recv()
                        if writers[dst] is not None:
                            deposit(dst, frame)
                        else:
                            send_data(sock, dst, frame)
                except (EOFError, OSError):
                    del open_uplinks[r]

            # -- worker results, errors and silent deaths ---------------
            for rank, kind, payload in workers.events(ready):
                send_payload(sock, {
                    "op": f"rank_{kind}", "runid": runid,
                    "rank": rank, "payload": payload,
                })
