"""The warm worker pool: long-lived processes executing queued jobs.

This is the nengo_mpi shape (persistent master waking workers per model
instead of re-spawning): fork once at daemon start, keep the workers
warm — imports done, numpy loaded, case builders hot — and pay only the
job's own execution cost per request.  Each worker is one non-daemonic
forked process (non-daemonic because ``mp``-backend jobs fork their own
rank processes, which Python forbids from daemonic parents) looping on
a duplex pipe: ``("job", wire_spec, attempt)`` in, ``("done", payload)``
or ``("error", kind, message, detail)`` out.

Failure semantics, all typed:

* a worker that exits mid-job (crash) is discarded, a fresh worker is
  forked in its place, and the job is **retried** with bounded
  exponential backoff up to ``max_retries`` times — safe because jobs
  are pure functions of their spec.  Exhausting retries raises
  :class:`WorkerCrash`.
* a job exceeding ``job_timeout`` kills its worker (the only way to
  interrupt it), forks a replacement, and raises :class:`JobTimeout` —
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

import itertools
import os
import queue
import threading
import time
from typing import Any

from repro.serve.jobs import JobSpec, close_warm_backends, run_job_bytes

__all__ = [
    "WorkerPool",
    "PoolError",
    "WorkerCrash",
    "JobTimeout",
    "JobExecutionError",
    "pool_available",
]

_worker_counter = itertools.count()


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
        if frame[0] == "ping":
            conn.send(("pong", os.getpid()))
            continue
        _, wire, attempt = frame
        try:
            spec = JobSpec.from_dict(wire)
            inject = spec.inject or ""
            if inject == "crash" or (inject == "crash:once" and attempt == 0):
                os._exit(13)  # simulated hard crash, no exception frame
            payload = run_job_bytes(spec)
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


class _Worker:
    """One warm process plus its duplex pipe."""

    def __init__(self, ctx: Any) -> None:
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child,),
            name=f"repro-serve-worker-{next(_worker_counter)}",
            daemon=False,  # mp-backend jobs fork their own rank processes
        )
        self.proc.start()
        child.close()

    def alive(self) -> bool:
        return self.proc.is_alive()

    def stop(self, timeout: float = 2.0) -> None:
        """Polite shutdown; escalates to terminate."""
        try:
            self.conn.send(("exit",))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=1.0)
        self._close()

    def kill(self) -> None:
        """Immediate teardown (timeout enforcement)."""
        self.proc.terminate()
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():  # pragma: no cover - terminate is enough
            self.proc.kill()
            self.proc.join(timeout=1.0)
        self._close()

    def _close(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        try:
            self.proc.close()
        except ValueError:  # pragma: no cover - still running
            pass


class WorkerPool:
    """A fixed-size pool of warm job-executing processes."""

    def __init__(
        self,
        workers: int = 2,
        job_timeout: float | None = 300.0,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
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
        self.retry_backoff = float(retry_backoff)
        self._idle: queue.Queue[_Worker] = queue.Queue()
        self._all: list[_Worker] = []
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
            from multiprocessing import get_context

            self._ctx = get_context("fork")
            for _ in range(self.workers):
                w = _Worker(self._ctx)
                self._all.append(w)
                self._idle.put(w)
            self._started = True
        return self

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _respawn(self, dead: _Worker) -> _Worker:
        """Replace a dead/killed worker with a fresh fork."""
        with self._lock:
            if dead in self._all:
                self._all.remove(dead)
            self.crashes += 1
            if self._closed:
                raise PoolError("pool is closed")
            fresh = _Worker(self._ctx)
            self._all.append(fresh)
            return fresh

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
                return self._execute_once(spec, attempt, limit), attempt + 1
            except WorkerCrash:
                if attempt >= self.max_retries:
                    raise WorkerCrash(
                        f"job {spec.sha()[:12]} crashed its worker on all "
                        f"{self.max_retries + 1} attempt(s)",
                        attempts=attempt + 1,
                    )
                time.sleep(min(self.retry_backoff * (2 ** attempt), 1.0))
        raise AssertionError("unreachable")  # pragma: no cover

    def _execute_once(
        self, spec: JobSpec, attempt: int, limit: float | None
    ) -> bytes:
        worker = self._idle.get()
        give_back: _Worker | None = worker
        try:
            try:
                worker.conn.send(("job", spec.to_wire(), attempt))
            except (BrokenPipeError, OSError):
                give_back = self._respawn(worker)
                raise WorkerCrash("worker pipe closed before dispatch")
            deadline = None if limit is None else time.monotonic() + limit
            while True:
                slice_ = 0.1
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        worker.kill()
                        give_back = self._respawn(worker)
                        raise JobTimeout(
                            f"job {spec.sha()[:12]} exceeded the "
                            f"{limit:.6g}s per-job timeout"
                        )
                    slice_ = min(slice_, remaining)
                try:
                    has_frame = worker.conn.poll(slice_)
                except (EOFError, OSError):
                    has_frame = False
                if has_frame:
                    try:
                        frame = worker.conn.recv()
                    except (EOFError, OSError):
                        give_back = self._respawn(worker)
                        raise WorkerCrash("worker died mid-result")
                    if frame[0] == "done":
                        return frame[1]
                    if frame[0] == "error":
                        _, kind, message, detail = frame
                        raise JobExecutionError(kind, message, detail)
                    continue  # stray pong etc.
                if not worker.alive():
                    # Drain any result that raced the exit.
                    try:
                        if worker.conn.poll(0):
                            continue
                    except (EOFError, OSError):
                        pass
                    give_back = self._respawn(worker)
                    raise WorkerCrash(
                        f"worker exited with code "
                        f"{worker.proc.exitcode} mid-job"
                    )
        finally:
            if give_back is not None:
                self._idle.put(give_back)

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
        deadline = time.monotonic() + timeout
        idle: list[_Worker] = []
        while True:
            try:
                idle.append(self._idle.get_nowait())
            except queue.Empty:
                break
        for w in idle:
            w.stop(timeout=max(0.1, deadline - time.monotonic()))
        for w in all_workers:
            if w not in idle:
                w.kill()
