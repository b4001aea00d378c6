"""Thin client for the ``repro serve`` daemon.

:class:`ServeClient` opens one unix-socket connection and speaks the
line-delimited JSON protocol synchronously: every method sends one
request frame and blocks for its response.  Multiple clients (or
threads each holding their own client) talk to the daemon
concurrently; one client instance is **not** thread-safe — it owns a
single request/response stream.

Errors are typed, never raw frames:

* :class:`ServeConnectError` — no daemon at the socket path (a clear
  actionable message, not a traceback);
* :class:`ServeProtocolError` — the server rejected a frame;
* :class:`JobFailedError` — the job itself failed; carries the typed
  ``kind/message/detail`` and, for ``RankFailure`` jobs, reconstructs a
  real :class:`repro.machine.faults.RankFailure` on ``.rank_failure``.
"""

from __future__ import annotations

import socket
from typing import Any

from repro.serve.jobs import JobSpec
from repro.serve.protocol import (
    MAX_FRAME,
    check_socket_path,
    decode_frame,
    encode_frame,
)

__all__ = [
    "ServeClient",
    "ServeError",
    "ServeConnectError",
    "ServeProtocolError",
    "JobFailedError",
]


class ServeError(RuntimeError):
    """Base class for client-side serve errors."""


class ServeConnectError(ServeError):
    """Could not reach a daemon at the socket path."""


class ServeProtocolError(ServeError):
    """The server answered with a protocol-level error."""


class JobFailedError(ServeError):
    """The submitted job failed; carries the server's typed error."""

    def __init__(self, kind: str, message: str, detail: dict | None = None):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.detail = detail or {}

    @property
    def rank_failure(self):
        """A reconstructed :class:`RankFailure` when the job died of
        one, else ``None``."""
        if self.kind != "RankFailure" or not self.detail:
            return None
        from repro.machine.faults import RankFailure

        d = self.detail
        return RankFailure(
            failed={int(r): t for r, t in d.get("failed", {}).items()},
            time=d.get("time", 0.0),
            blocked=[tuple(b) for b in d.get("blocked", [])],
            completed=list(d.get("completed", [])),
            nranks=d.get("nranks", 0),
        )


class ServeClient:
    """One synchronous connection to a ``repro serve`` daemon."""

    def __init__(self, socket_path: str, timeout: float | None = 60.0):
        # A path over the sockaddr_un limit raises the typed
        # SocketPathTooLong (naming the path) before any connect.
        self.socket_path = check_socket_path(str(socket_path))
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(self.socket_path)
        except FileNotFoundError:
            self._sock.close()
            raise ServeConnectError(
                f"no server socket at {self.socket_path} — "
                f"is `repro serve` running?"
            ) from None
        except OSError as exc:
            self._sock.close()
            raise ServeConnectError(
                f"could not connect to {self.socket_path}: {exc} — "
                f"is `repro serve` running?"
            ) from None
        self._rfile = self._sock.makefile("rb")

    # ------------------------------------------------------------------

    def _call(self, op: str, **fields: Any) -> dict[str, Any]:
        req = {"op": op, **fields}
        try:
            self._sock.sendall(encode_frame(req))
            line = self._rfile.readline(MAX_FRAME + 1)
        except OSError as exc:
            raise ServeConnectError(
                f"connection to {self.socket_path} lost: {exc}"
            ) from None
        if not line:
            raise ServeConnectError(
                f"server at {self.socket_path} closed the connection"
            )
        return decode_frame(line)

    @staticmethod
    def _raise_for(resp: dict[str, Any]) -> dict[str, Any]:
        if resp.get("ok"):
            return resp
        err = resp.get("error") or {}
        kind = err.get("kind", "ServeError")
        message = err.get("message", "unknown server error")
        detail = err.get("detail") or {}
        if kind in ("ProtocolError", "FrameTooLarge", "JobSpecError"):
            raise ServeProtocolError(f"{kind}: {message}")
        raise JobFailedError(kind, message, detail)

    # -------------------------------------------------------- operations

    def ping(self) -> dict[str, Any]:
        return self._raise_for(self._call("ping"))

    def submit(self, spec: JobSpec | dict, cache: bool = True) -> dict[str, Any]:
        """Enqueue a job (or get its cached/coalesced record).

        Returns the job record frame immediately; use :meth:`wait` for
        the result, or :meth:`run` for submit-and-wait in one call.
        """
        wire = spec.to_wire() if isinstance(spec, JobSpec) else spec
        return self._raise_for(self._call("submit", job=wire, cache=cache))

    def wait(
        self,
        job_id: int | None = None,
        sha: str | None = None,
        timeout: float | None = None,
        payload: bool = True,
    ) -> dict[str, Any]:
        """Block until the job finishes; raises on job failure."""
        fields: dict[str, Any] = {"payload": payload}
        if job_id is not None:
            fields["id"] = job_id
        if sha is not None:
            fields["sha"] = sha
        if timeout is not None:
            fields["timeout"] = timeout
        resp = self._raise_for(self._call("wait", **fields))
        if resp.get("timed_out"):
            raise ServeError(
                f"timed out after {timeout}s waiting for job "
                f"{job_id if job_id is not None else sha}"
            )
        return resp

    def run(
        self,
        spec: JobSpec | dict,
        cache: bool = True,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Submit and wait; the one-call path most users want.

        The returned frame's ``payload`` field holds the canonical
        result text verbatim (``payload.encode()`` gives the exact
        bytes a direct :func:`repro.serve.jobs.run_job_bytes` returns
        for deterministic jobs).
        """
        rec = self.submit(spec, cache=cache)
        if rec.get("state") == "done":
            return rec
        return self.wait(job_id=rec["id"], timeout=timeout)

    def result(
        self, job_id: int | None = None, sha: str | None = None,
        payload: bool = True,
    ) -> dict[str, Any]:
        fields: dict[str, Any] = {"payload": payload}
        if job_id is not None:
            fields["id"] = job_id
        if sha is not None:
            fields["sha"] = sha
        return self._raise_for(self._call("result", **fields))

    def jobs(self) -> list[dict[str, Any]]:
        return self._raise_for(self._call("jobs"))["jobs"]

    def stats(self) -> dict[str, Any]:
        return self._raise_for(self._call("stats"))

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to drain and exit."""
        return self._raise_for(self._call("shutdown"))

    # ------------------------------------------------------------------

    def close(self) -> None:
        try:
            self._rfile.close()
        except OSError:  # pragma: no cover
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
