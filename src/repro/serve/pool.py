"""The warm worker pool: long-lived processes executing queued jobs.

This is the nengo_mpi shape (persistent master waking workers per model
instead of re-spawning): fork once at daemon start, keep the workers
warm — imports done, numpy loaded, case builders hot — and pay only the
job's own execution cost per request.  Each worker is one non-daemonic
forked process (non-daemonic because ``mp``-backend jobs fork their own
rank processes, which Python forbids from daemonic parents) looping on
a duplex pipe: ``("job", wire_spec)`` in, ``("done", payload)``
or ``("error", kind, message, detail)`` out.

Failure semantics, all typed:

* a worker that exits mid-job (crash) is discarded, a fresh worker is
  forked in its place, and the job is **retried** with bounded
  exponential backoff (from :data:`RETRY_BACKOFF`) up to
  ``max_retries`` times — safe because jobs are pure functions of
  their spec.  Exhausting retries raises :class:`WorkerCrash`.
* a job exceeding ``job_timeout`` kills its worker (the only way to
  interrupt it; :func:`repro.backend.proc.stop`, the ladder that ends
  in SIGKILL), forks a replacement, and raises :class:`JobTimeout` —
  never retried, since a retry would just burn another timeout.
* a job whose *program* raised is not a pool failure at all: the
  exception travels back as data and surfaces as
  :class:`JobExecutionError` carrying the original kind/message/detail
  (including the structured fields of a
  :class:`repro.machine.faults.RankFailure`) — deterministic failures
  are not retried.

``execute`` is thread-safe: workers live in an idle queue, concurrent
callers check one out, and the pool multiplexes as many in-flight jobs
as it has workers.
"""

from __future__ import annotations

import queue
import threading
import time
from multiprocessing import get_context
from typing import Any

from repro.backend.proc import Child, Crash, stop, wait
from repro.serve.jobs import JobSpec, close_warm_backends, run_job_bytes

__all__ = [
    "WorkerPool",
    "PoolError",
    "WorkerCrash",
    "JobTimeout",
    "JobExecutionError",
    "pool_available",
]


#: First retry delay after a worker crash (seconds); doubles per
#: attempt, capped at one second.
RETRY_BACKOFF = 0.05


def pool_available() -> str | None:
    """``None`` when the pool can run here, else the reason it cannot."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return "requires the 'fork' start method"
    return None


class PoolError(RuntimeError):
    """Base class for pool-level job failures."""


class WorkerCrash(PoolError):
    """The worker process died mid-job on every allowed attempt."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class JobTimeout(PoolError):
    """The job exceeded the pool's per-job wall-clock budget."""


class JobExecutionError(PoolError):
    """The job's own code raised; carries the original typed error."""

    def __init__(self, kind: str, message: str, detail: dict | None = None):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.detail = detail or {}


def _worker_main(conn: Any) -> None:
    """Entry point of one warm worker process."""
    import signal

    from repro.machine.faults import RankFailure

    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group; the daemon coordinates shutdown over the pipe, so workers
    # must sit it out and finish their in-flight job during the drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            break  # parent is gone
        if frame[0] == "exit":
            break
        try:
            payload = run_job_bytes(JobSpec.from_dict(frame[1]))
            conn.send(("done", payload))
        except BaseException as exc:  # noqa: BLE001 - shipped as data
            detail: dict[str, Any] = {}
            if isinstance(exc, RankFailure):
                detail = {
                    "failed": {str(r): t for r, t in exc.failed.items()},
                    "time": exc.time,
                    "blocked": [list(b) for b in exc.blocked],
                    "completed": list(exc.completed),
                    "nranks": exc.nranks,
                }
            try:
                conn.send(("error", type(exc).__name__, str(exc), detail))
            except (BrokenPipeError, OSError):
                break
    close_warm_backends()
    # Plain return: multiprocessing finalizes the child itself (and
    # coverage's multiprocessing hook flushes data on the way out).


class WorkerPool:
    """A fixed-size pool of warm job-executing processes."""

    def __init__(
        self,
        workers: int = 2,
        job_timeout: float | None = 300.0,
        max_retries: int = 2,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        reason = pool_available()
        if reason is not None:
            raise PoolError(f"worker pool unavailable: {reason}")
        self.workers = int(workers)
        self.job_timeout = job_timeout
        self.max_retries = int(max_retries)
        self._idle: queue.Queue[Child] = queue.Queue()
        self._all: list[Child] = []
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        #: Total worker crashes observed (respawns performed).
        self.crashes = 0

    # ------------------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Fork the warm workers (idempotent)."""
        with self._lock:
            if self._closed:
                raise PoolError("pool is closed")
            if self._started:
                return self
            for _ in range(self.workers):
                self._idle.put(self._spawn())
            self._started = True
        return self

    def _spawn(self) -> Child:
        """Fork one warm worker (caller holds the lock)."""
        worker = Child(
            get_context("fork"),
            _worker_main,
            daemon=False,  # mp-backend jobs fork their own rank processes
        )
        self._all.append(worker)
        return worker

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _respawn(self, dead: Child) -> Child:
        """Walk a crashed or timed-out worker down the stop ladder (it
        is killed, reaped and closed whatever state it is in) and fork
        its replacement."""
        stop([dead])
        with self._lock:
            if dead in self._all:
                self._all.remove(dead)
            self.crashes += 1
            if self._closed:
                raise PoolError("pool is closed")
            return self._spawn()

    # ------------------------------------------------------------------

    def execute(
        self, spec: JobSpec, timeout: float | None | object = ...
    ) -> tuple[bytes, int]:
        """Run one job on a warm worker; returns ``(payload, attempts)``.

        Blocks until a worker is free.  ``timeout`` overrides the
        pool's ``job_timeout`` (``None`` disables the limit).
        """
        if not self._started or self._closed:
            raise PoolError("pool is not running (call start())")
        limit = self.job_timeout if timeout is ... else timeout
        for attempt in range(self.max_retries + 1):
            try:
                return self._execute_once(spec, limit), attempt + 1
            except WorkerCrash:
                if attempt >= self.max_retries:
                    raise WorkerCrash(
                        f"job {spec.sha()[:12]} crashed its worker on all "
                        f"{self.max_retries + 1} attempt(s)",
                        attempts=attempt + 1,
                    )
                time.sleep(min(RETRY_BACKOFF * (2 ** attempt), 1.0))
        raise AssertionError("unreachable")  # pragma: no cover

    def _execute_once(self, spec: JobSpec, limit: float | None) -> bytes:
        worker = self._idle.get()
        try:
            if not worker.send(("job", spec.to_wire())):
                raise WorkerCrash("worker pipe closed before dispatch")
            deadline = None if limit is None else time.monotonic() + limit
            while True:
                if not wait(worker.waitables(), deadline):
                    raise JobTimeout(
                        f"job {spec.sha()[:12]} exceeded the "
                        f"{limit:.6g}s per-job timeout"
                    )
                got = worker.take()
                if isinstance(got, Crash):
                    raise WorkerCrash(
                        f"worker exited with code {got.exitcode} mid-job"
                    )
                if got is None:
                    continue
                if got[0] == "done":
                    return got[1]
                _, kind, message, detail = got
                raise JobExecutionError(kind, message, detail)
        except (WorkerCrash, JobTimeout):
            # Either way this worker is finished: the job is still
            # running in it, or it is gone.
            worker = self._respawn(worker)
            raise
        finally:
            self._idle.put(worker)

    # ------------------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker.  Call only once in-flight jobs finished
        (the server drains first); busy workers are terminated."""
        with self._lock:
            if self._closed or not self._started:
                self._closed = True
                return
            self._closed = True
            all_workers = list(self._all)
            self._all.clear()
        idle: list[Child] = []
        while True:
            try:
                idle.append(self._idle.get_nowait())
            except queue.Empty:
                break
        stop([w for w in all_workers if w not in idle])
        stop(idle, ("exit",), timeout)
