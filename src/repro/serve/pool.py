"""The warm worker: one long-lived process executing jobs one at a time.

This is the nengo_mpi shape (persistent master waking workers per model
instead of re-spawning): fork once at daemon start, keep the worker
warm — imports done, numpy loaded, case builders hot — and pay only the
job's own execution cost per request.  Each ``repro serve`` dispatcher
owns one :class:`WarmWorker` for its whole life, so a worker never has
two callers and needs no queue or lock of its own.  The worker process
is non-daemonic (``mp``-backend jobs fork their own rank processes,
which Python forbids from daemonic parents) and loops on a duplex pipe:
``("job", wire_spec)`` in, ``("done", payload)`` or ``("error", kind,
message, detail)`` out.

Failure semantics, all typed:

* a worker process that exits mid-job (crash) is walked down the stop
  ladder, a fresh one is forked in its place, and the job is
  **retried** with bounded exponential backoff (from
  :data:`RETRY_BACKOFF`) up to ``max_retries`` times — safe because
  jobs are pure functions of their spec.  Exhausting retries raises
  :class:`WorkerCrash`.
* a job exceeding ``job_timeout`` kills its process (the only way to
  interrupt it; :func:`repro.backend.proc.stop`, the ladder that ends
  in SIGKILL), forks a replacement, and raises :class:`JobTimeout` —
  never retried, since a retry would just burn another timeout.
* a job whose *program* raised is not a worker failure at all: the
  exception travels back as data and surfaces as
  :class:`JobExecutionError` carrying the original kind/message/detail
  (including the structured fields of a
  :class:`repro.machine.faults.RankFailure`) — deterministic failures
  are not retried.

A closed worker forks no replacement: its next job, or the one that
:meth:`WarmWorker.abort` killed, fails with :class:`PoolError`.

``run_job_bytes`` is imported into this module by name, so a test that
patches ``repro.serve.pool.run_job_bytes`` before the fork changes what
every worker, and every replacement, runs.
"""

from __future__ import annotations

import contextlib
import time
from multiprocessing import get_context
from typing import Any

from repro.backend.proc import Child, Crash, stop, wait
from repro.serve.jobs import JobSpec, close_warm_backends, run_job_bytes

__all__ = [
    "WarmWorker",
    "PoolError",
    "WorkerCrash",
    "JobTimeout",
    "JobExecutionError",
    "close_workers",
]


#: First retry delay after a worker crash (seconds); doubles per
#: attempt, capped at one second.
RETRY_BACKOFF = 0.05

#: Seconds idle workers get to leave on :func:`close_workers` before
#: the stop ladder signals them.
CLOSE_GRACE = 5.0


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


def _fork() -> Child:
    return Child(
        get_context("fork"),
        _worker_main,
        daemon=False,  # mp-backend jobs fork their own rank processes
    )


class WarmWorker:
    """One forked warm worker plus the ladder that runs a job on it."""

    def __init__(
        self, job_timeout: float | None = 300.0, max_retries: int = 2
    ) -> None:
        self.job_timeout = job_timeout
        self.max_retries = int(max_retries)
        #: Crashed or timed-out processes replaced (or, once closed,
        #: reaped) so far.
        self.respawns = 0
        self.busy = False
        self.closed = False
        self.child = _fork()

    def execute(self, spec: JobSpec) -> tuple[bytes, int]:
        """Run one job; returns ``(payload, attempts)``.  The job gets
        ``job_timeout`` seconds (``None``: no limit)."""
        for attempt in range(self.max_retries + 1):
            try:
                return self._execute_once(spec), attempt + 1
            except WorkerCrash:
                if attempt >= self.max_retries:
                    raise WorkerCrash(
                        f"job {spec.sha()[:12]} crashed its worker on all "
                        f"{self.max_retries + 1} attempt(s)",
                        attempts=attempt + 1,
                    )
                time.sleep(min(RETRY_BACKOFF * (2 ** attempt), 1.0))
        raise AssertionError("unreachable")  # pragma: no cover

    def _execute_once(self, spec: JobSpec) -> bytes:
        limit = self.job_timeout
        # Set ``busy``, then read ``closed``; abort() writes and reads
        # them the other way round, so one of the two sees the other.
        self.busy = True
        try:
            if self.closed:
                raise PoolError("worker is closed")
            child = self.child
            if not child.send(("job", spec.to_wire())):
                raise WorkerCrash("worker pipe closed before dispatch")
            deadline = None if limit is None else time.monotonic() + limit
            while True:
                if not wait(child.waitables(), deadline):
                    raise JobTimeout(
                        f"job {spec.sha()[:12]} exceeded the "
                        f"{limit:.6g}s per-job timeout"
                    )
                got = child.take()
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
            # Either way this process is finished: the job is still
            # running in it, or it is gone.
            self._respawn()
            raise
        finally:
            self.busy = False

    def _respawn(self) -> None:
        """Walk the process down the stop ladder (it is killed, reaped
        and closed whatever state it is in) and fork its replacement,
        unless the worker is closed."""
        stop([self.child])
        self.respawns += 1
        if self.closed:
            raise PoolError("worker is closed")
        self.child = _fork()

    def abort(self) -> None:
        """Close the worker from another thread; a running job's process
        is SIGKILLed at once, and the job's own ladder reaps it and
        fails the job with :class:`PoolError`."""
        self.closed = True
        if self.busy:
            # The owning thread may be reaping this process already.
            with contextlib.suppress(AttributeError, ValueError):
                self.child.proc.kill()


def close_workers(workers: list[WarmWorker]) -> None:
    """Stop idle workers: ``exit``, one shared :data:`CLOSE_GRACE`, then
    the stop ladder.  Processes an abort already reaped are skipped."""
    for w in workers:
        w.closed = True
    stop([w.child for w in workers], ("exit",), CLOSE_GRACE)
