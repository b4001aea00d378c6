"""The ``repro serve`` daemon: unix-socket front end over the pool.

Architecture (all inside one process):

* an **accept loop** (caller's thread via :meth:`serve_forever`, or a
  background thread via :meth:`start`) takes unix-socket connections
  and hands each to a connection-handler thread speaking the
  line-delimited JSON protocol;
* a bounded FIFO **job queue** feeds one **dispatcher thread per pool
  worker**; dispatchers pull job records, call
  :meth:`WorkerPool.execute` and publish the outcome on the record;
* a :class:`~repro.serve.cache.ResultCache` answers repeat submissions
  of deterministic jobs with the literal bytes of the first run, and an
  **active-job map** coalesces concurrent submissions of the same sha
  onto one record, so a thundering herd of identical requests costs one
  execution;
* the **job table** holds every queued and running record plus the
  newest :data:`MAX_FINISHED` finished ones; ``result``/``wait`` on an
  older id answer ``UnknownJob``.

Failure propagation is typed end to end: a job whose program raised
surfaces as a ``failed`` record carrying ``{kind, message, detail}``
(with :class:`~repro.machine.faults.RankFailure` fields preserved in
``detail``); worker crashes are retried by the pool and only surface
after retries exhaust; timeouts surface as ``JobTimeout``.

Shutdown is a graceful drain: on ``shutdown`` (or SIGTERM via the CLI)
the server stops accepting submissions (new ones get a ``Draining``
error), lets queued and running jobs finish, then closes the pool and
removes the socket.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import queue
import socket
import threading
import time
from typing import Any

from repro.serve.cache import ResultCache
from repro.serve.jobs import JobSpec, JobSpecError
from repro.serve.pool import (
    JobExecutionError,
    JobTimeout,
    PoolError,
    WorkerCrash,
    WorkerPool,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    FrameTooLarge,
    ProtocolError,
    check_socket_path,
    encode_frame,
    error_response,
    ok_response,
    read_frame,
)

__all__ = ["ReproServer", "JobRecord"]

_job_ids = itertools.count(1)

#: Queued jobs beyond this are refused with ``QueueFull``.
MAX_QUEUE = 1024

#: Finished records the job table keeps (oldest-finished evicted first).
MAX_FINISHED = 1024


class JobRecord:
    """One submission's lifecycle, shared between handler and dispatcher."""

    __slots__ = (
        "id", "spec", "sha", "use_cache", "state", "cached", "attempts",
        "error", "payload", "submitted_at", "finished_at", "done",
    )

    def __init__(self, spec: JobSpec, use_cache: bool) -> None:
        self.id = next(_job_ids)
        self.spec = spec
        self.sha = spec.sha()
        self.use_cache = use_cache
        self.state = "queued"  # queued | running | done | failed
        self.cached = False
        self.attempts = 0
        self.error: dict[str, Any] | None = None
        self.payload: bytes | None = None
        self.submitted_at = time.time()
        self.finished_at: float | None = None
        self.done = threading.Event()

    def finish_ok(self, payload: bytes, attempts: int, cached: bool) -> None:
        self.payload = payload
        self.attempts = attempts
        self.cached = cached
        self.state = "done"
        self.finished_at = time.time()
        self.done.set()

    def finish_err(self, kind: str, message: str, detail: dict) -> None:
        self.error = {"kind": kind, "message": message, "detail": detail}
        self.state = "failed"
        self.finished_at = time.time()
        self.done.set()

    def summary(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "sha": self.sha,
            "case": self.spec.case,
            "backend": self.spec.backend,
            "state": self.state,
            "cached": self.cached,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
        }
        if self.finished_at is not None:
            out["finished_at"] = self.finished_at
        if self.error is not None:
            out["error"] = self.error
        return out


class ReproServer:
    """Long-lived job server over a unix socket."""

    def __init__(
        self,
        socket_path: str,
        workers: int = 2,
        cache_dir: str | None = None,
        job_timeout: float | None = 300.0,
        max_retries: int = 2,
        tracer: Any = None,
    ) -> None:
        self.socket_path = str(socket_path)
        self.cache = ResultCache(directory=cache_dir)
        self.tracer = tracer
        self.pool = WorkerPool(
            workers=workers, job_timeout=job_timeout, max_retries=max_retries
        )
        self._queue: queue.Queue[JobRecord] = queue.Queue(maxsize=MAX_QUEUE)
        self._jobs: dict[int, JobRecord] = {}
        self._finished: collections.deque[int] = collections.deque()
        self._active: dict[str, JobRecord] = {}  # sha -> in-flight record
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._running = 0  # dispatcher-held jobs
        self._idle_cv = threading.Condition(self._lock)
        self._sock: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._accept_thread: threading.Thread | None = None
        self.started_at = time.time()

    # ------------------------------------------------------------- setup

    def _bind(self) -> None:
        # Over-long paths get the typed SocketPathTooLong (an OSError
        # naming the path) instead of the kernel's bare bind failure.
        path = check_socket_path(self.socket_path)
        if os.path.exists(path):
            # A stale socket from a crashed daemon is fine to replace; a
            # *live* one is not.
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.settimeout(0.5)
                probe.connect(path)
            except OSError:
                os.unlink(path)
            else:
                probe.close()
                raise OSError(
                    f"socket {path} is already served by a live daemon"
                )
            finally:
                probe.close()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(path)
        self._sock.listen(64)
        self._sock.settimeout(0.2)  # so the accept loop sees _stop

    def start(self) -> "ReproServer":
        """Bind, warm the pool, and serve from background threads."""
        self._bind()
        self.pool.start()
        for i in range(self.pool.workers):
            t = threading.Thread(
                target=self._dispatch_loop, args=(i,),
                name=f"serve-dispatch-{i}", daemon=True,
            )
            t.start()
            self._threads.append(t)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def wait(self) -> None:
        """Block until the accept loop has exited, i.e. until a
        :meth:`shutdown` (from a signal handler or another thread) got
        that far.  Joins in short slices so signal handlers keep
        running in the calling thread."""
        if self._accept_thread is None:
            raise RuntimeError("wait() before start()")
        while self._accept_thread.is_alive():
            self._accept_thread.join(timeout=0.5)

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    # ------------------------------------------------------ accept loop

    def _accept_loop(self) -> None:
        assert self._sock is not None
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            t = threading.Thread(
                target=self._handle_connection, args=(conn,),
                name="serve-conn", daemon=True,
            )
            t.start()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    # -------------------------------------------------------- dispatch

    def _dispatch_loop(self, index: int) -> None:
        """One dispatcher per pool worker: pull, execute, publish."""
        while True:
            try:
                rec = self._queue.get(timeout=0.2)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            with self._lock:
                self._running += 1
            rec.state = "running"
            t0 = time.perf_counter()
            try:
                payload, attempts = self.pool.execute(rec.spec)
            except JobExecutionError as exc:
                rec.finish_err(exc.kind, exc.message, exc.detail)
            except (WorkerCrash, JobTimeout, PoolError) as exc:
                rec.finish_err(type(exc).__name__, str(exc), {})
            except BaseException as exc:  # pragma: no cover - last resort
                rec.finish_err(type(exc).__name__, str(exc), {})
            else:
                if rec.use_cache and rec.spec.deterministic:
                    self.cache.put(rec.sha, payload)
                rec.finish_ok(payload, attempts, cached=False)
                if self.tracer is not None:
                    t1 = time.perf_counter()
                    self.tracer.op(
                        index, f"job:{rec.spec.case}", "compute",
                        t0, t1, 0.0, len(payload),
                    )
            with self._lock:
                self._active.pop(rec.sha, None)
                self._retire(rec)
                self._running -= 1
                self._idle_cv.notify_all()

    # ------------------------------------------------------- operations

    def _op_ping(self, req: dict) -> dict:
        return ok_response(
            protocol=PROTOCOL_VERSION,
            pid=os.getpid(),
            workers=self.pool.workers,
            uptime_s=time.time() - self.started_at,
            draining=self._draining.is_set(),
        )

    def _op_submit(self, req: dict) -> dict:
        use_cache = bool(req.get("cache", True))
        try:
            spec = JobSpec.from_dict(req.get("job"))
        except JobSpecError as exc:
            return error_response("JobSpecError", str(exc))
        sha = spec.sha()
        if use_cache and spec.deterministic:
            hit = self.cache.get(sha)
            if hit is not None:
                rec = JobRecord(spec, use_cache)
                rec.finish_ok(hit, attempts=0, cached=True)
                with self._lock:
                    self._jobs[rec.id] = rec
                    self._retire(rec)
                return self._job_response(rec, req)
        with self._lock:
            if self._draining.is_set():
                return error_response(
                    "Draining", "server is draining; not accepting jobs"
                )
            live = self._active.get(sha)
            if live is not None:
                rec = live  # piggyback on the identical in-flight job
            else:
                rec = JobRecord(spec, use_cache)
                self._jobs[rec.id] = rec
                self._active[sha] = rec
                try:
                    self._queue.put_nowait(rec)
                except queue.Full:
                    self._jobs.pop(rec.id, None)
                    self._active.pop(sha, None)
                    return error_response(
                        "QueueFull", "job queue is at capacity; retry later"
                    )
        return self._job_response(rec, req)

    def _op_wait(self, req: dict) -> dict:
        rec = self._find(req)
        if rec is None:
            return error_response(
                "UnknownJob", f"no job {req.get('id', req.get('sha'))!r}"
            )
        timeout = req.get("timeout")
        if timeout is not None and not isinstance(timeout, (int, float)):
            return error_response("ProtocolError", "timeout must be a number")
        if not rec.done.wait(timeout):
            return ok_response(**rec.summary(), timed_out=True)
        return self._job_response(rec, req)

    def _op_result(self, req: dict) -> dict:
        rec = self._find(req)
        if rec is None:
            return error_response(
                "UnknownJob", f"no job {req.get('id', req.get('sha'))!r}"
            )
        return self._job_response(rec, req)

    def _op_jobs(self, req: dict) -> dict:
        with self._lock:
            records = sorted(self._jobs.values(), key=lambda r: r.id)
        return ok_response(jobs=[r.summary() for r in records])

    def _op_stats(self, req: dict) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for rec in self._jobs.values():
                states[rec.state] = states.get(rec.state, 0) + 1
        return ok_response(
            cache=self.cache.stats(),
            jobs=states,
            workers=self.pool.workers,
            worker_crashes=self.pool.crashes,
            queue_depth=self._queue.qsize(),
            draining=self._draining.is_set(),
        )

    def _op_shutdown(self, req: dict) -> dict:
        # Non-daemon: interpreter exit waits for the drain to finish
        # (pool closed, socket unlinked) instead of killing it mid-way.
        threading.Thread(
            target=self.shutdown, name="serve-shutdown", daemon=False
        ).start()
        return ok_response(draining=True)

    _OPS = {
        "ping": _op_ping,
        "submit": _op_submit,
        "wait": _op_wait,
        "result": _op_result,
        "jobs": _op_jobs,
        "stats": _op_stats,
        "shutdown": _op_shutdown,
    }

    def _retire(self, rec: JobRecord) -> None:
        """Lock held: ``rec`` has finished; keep only the newest
        :data:`MAX_FINISHED` finished records in the table."""
        self._finished.append(rec.id)
        while len(self._finished) > MAX_FINISHED:
            self._jobs.pop(self._finished.popleft(), None)

    def _find(self, req: dict) -> JobRecord | None:
        job_id = req.get("id")
        sha = req.get("sha")
        with self._lock:
            if job_id is not None:
                return self._jobs.get(job_id)
            if isinstance(sha, str):
                best = None
                for rec in self._jobs.values():
                    if rec.sha == sha and (best is None or rec.id > best.id):
                        best = rec
                return best
        return None

    def _job_response(self, rec: JobRecord, req: dict) -> dict:
        fields = rec.summary()
        if rec.state == "done" and rec.payload is not None:
            if req.get("payload", True):
                fields["payload"] = rec.payload.decode()
            return ok_response(**fields)
        if rec.state == "failed":
            err = fields.pop("error")
            return error_response(
                err["kind"], err["message"], err["detail"], **fields
            )
        return ok_response(**fields)

    # ------------------------------------------------------ connections

    def _handle_connection(self, conn: socket.socket) -> None:
        rfile = conn.makefile("rb")
        try:
            while True:
                try:
                    req = read_frame(rfile)
                except FrameTooLarge as exc:
                    self._send(conn, error_response("FrameTooLarge", str(exc)))
                    return
                except ProtocolError as exc:
                    # Recoverable garbage: answer and keep reading.
                    self._send(conn, error_response("ProtocolError", str(exc)))
                    continue
                if req is None:
                    return  # clean EOF
                op = req.get("op")
                handler = self._OPS.get(op) if isinstance(op, str) else None
                if handler is None:
                    resp = error_response(
                        "ProtocolError",
                        f"unknown op {op!r}; expected one of "
                        f"{sorted(self._OPS)}",
                    )
                else:
                    try:
                        resp = handler(self, req)
                    except Exception as exc:  # pragma: no cover - safety net
                        resp = error_response(type(exc).__name__, str(exc))
                if "seq" in req:
                    resp["seq"] = req["seq"]
                if not self._send(conn, resp):
                    return
        finally:
            try:
                rfile.close()
            except OSError:  # pragma: no cover
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    @staticmethod
    def _send(conn: socket.socket, resp: dict) -> bool:
        try:
            conn.sendall(encode_frame(resp))
            return True
        except ProtocolError:
            # Response itself unencodable — degrade, never crash handler.
            fallback = error_response(
                "ProtocolError", "response was not encodable"
            )
            try:
                conn.sendall(
                    json.dumps(fallback, separators=(",", ":")).encode()
                    + b"\n"
                )
                return True
            except OSError:
                return False
        except OSError:
            return False

    # --------------------------------------------------------- shutdown

    def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting submissions and wait for in-flight work."""
        self._draining.set()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle_cv:
            while self._queue.qsize() > 0 or self._running > 0:
                remaining = 0.2
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    remaining = min(remaining, 0.2)
                self._idle_cv.wait(timeout=remaining)
        return True

    def shutdown(self, drain_timeout: float | None = 30.0) -> None:
        """Graceful stop: drain, halt threads, close pool, remove socket."""
        if self._stop.is_set():
            return
        self.drain(timeout=drain_timeout)
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for t in self._threads:
            t.join(timeout=2.0)
        self.pool.close()
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
