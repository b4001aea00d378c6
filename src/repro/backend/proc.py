"""One supervised child process, one stop ladder, one deadline wait.

Every engine that forks — mp's rank workers, a cluster node daemon's
rank workers, the serve pool's warm workers — supervises its children
here, so the two rules that decide whether a stuck process becomes a
typed error or a hang are written once:

* **classification** (:meth:`Child.take`): a buffered control frame
  always wins over a fired sentinel; only a process that is gone with
  nothing left in its pipe is a crash.
* **the stop ladder** (:func:`stop`) ends in SIGKILL and a reaped
  process.  SIGTERM alone is not enough: a process stopped by SIGSTOP
  never acts on it, and an unreaped child makes ``Process.close()``
  raise and hangs the interpreter's atexit join.

:func:`wait` owns the ``deadline - monotonic()`` arithmetic of every
blocking wait; what expiry *means* (``RankFailure``, ``JobTimeout``,
``HandshakeError``) stays with the caller.
"""

from __future__ import annotations

import time
from multiprocessing import connection
from typing import Any, Callable, Iterable, NamedTuple

__all__ = [
    "ABORT_GRACE", "Child", "Crash", "EXIT_GRACE", "TERM_GRACE", "stop",
    "wait",
]

#: Seconds a finished chunk's rank workers get to leave on their own.
EXIT_GRACE = 5.0
#: The same for an aborted chunk: its ranks' results are discarded, so
#: waiting for them buys nothing.
ABORT_GRACE = 0.5
#: Seconds a SIGTERMed child gets to die before it is SIGKILLed.
TERM_GRACE = 1.0


class Crash(NamedTuple):
    """:meth:`Child.take`: the child died with nothing left to read."""

    exitcode: int | None


class Child:
    """One forked process plus its duplex control pipe.

    ``target(conn, *args, **kwargs)`` runs in the child with the far
    end of the pipe; the parent keeps :attr:`conn`.
    """

    def __init__(
        self, ctx: Any, target: Callable[..., None], args: tuple = (),
        kwargs: dict[str, Any] | None = None, *, daemon: bool,
    ) -> None:
        self.conn, far = ctx.Pipe(duplex=True)
        self.proc: Any = ctx.Process(
            target=target, args=(far, *args), kwargs=kwargs or {},
            daemon=daemon,
        )
        try:
            self.proc.start()
        finally:
            far.close()  # the child's end is unused in the parent

    def send(self, frame: Any) -> bool:
        """Send one control frame; ``False`` if the pipe is gone."""
        try:
            self.conn.send(frame)
        except OSError:  # BrokenPipeError included
            return False
        return True

    def waitables(self) -> list[Any]:
        """What to :func:`wait` on before :meth:`take`."""
        return [self.conn, self.proc.sentinel]

    def take(self) -> Any:
        """The next control frame if one is buffered; else a
        :class:`Crash` if the child can never send one; else ``None``."""
        # Death is observed *before* the pipe is looked at: whatever a
        # dead process wrote is already buffered, so a result that
        # raced the exit is still found and never called a crash.
        dead = not self.proc.is_alive()
        try:
            if self.conn.poll(0):
                return self.conn.recv()
        except (EOFError, OSError):
            dead = True  # pipe closed under a live child: just as mute
        return Crash(self.proc.exitcode) if dead else None


def stop(
    children: Iterable[Child], frame: Any = None, grace: float = 0.0
) -> None:
    """The stop ladder, over any number of children sharing each rung's
    deadline: send ``frame`` (if any), give them ``grace`` seconds to
    leave, SIGTERM the rest, :data:`TERM_GRACE` later SIGKILL the rest,
    reap and close.  Cannot leave a live process behind; idempotent."""
    live = [c for c in children if c.proc is not None]
    if frame is not None:
        for c in live:
            c.send(frame)
    _join(live, grace)
    for c in live:
        c.proc.terminate()  # like kill(): a no-op once the child is reaped
    _join(live, TERM_GRACE)
    for c in live:
        c.proc.kill()
        c.proc.join()
        c.proc.close()
        c.proc = None
        c.conn.close()


def _join(children: list[Child], seconds: float) -> None:
    deadline = time.monotonic() + seconds
    for c in children:
        c.proc.join(max(0.0, deadline - time.monotonic()))


def wait(waitables: list[Any], deadline: float | None) -> list[Any]:
    """Block until one of ``waitables`` is ready or ``deadline`` (a
    ``time.monotonic()`` instant; ``None``: no limit) has passed.
    Returns the ready ones — an empty list means the deadline expired."""
    if deadline is None:
        return connection.wait(waitables)
    return connection.wait(waitables, max(0.0, deadline - time.monotonic()))
