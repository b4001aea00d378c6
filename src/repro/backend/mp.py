"""Real multiprocess execution of rank programs.

Runs each rank as a genuine ``multiprocessing`` process (``fork`` start
method, once per chunk — the child inherits its rank program, so mp
never pickles one and a closure runs as well as the picklable programs
the drivers build) and interprets the very same primitive tuples the
simulator's scheduler dispatches, against real transport:

* **pickle-over-pipe point-to-point** — one OS pipe per destination
  rank, shared by all senders behind a per-destination lock.  A frame
  is one pickle of ``(src, tag, seq, nbytes, payload)`` and is capped
  at :data:`SHM_THRESHOLD` bytes: shared memory hides inside pickling.
  A bare ``numpy`` array that large is copied raw into a POSIX
  shared-memory segment and pickles as a reference to it; a frame still
  that large after the dump is staged whole and the pipe carries a
  pickled reference to it.  Loading a reference takes (copies out and
  unlinks) its segment.  Keeping every pipe frame small means blocking
  writes cannot wedge the eager-send model the programs assume.
* **mailbox semantics reused verbatim** — incoming frames are deposited
  into the same :class:`repro.machine.event.Mailbox` the simulator
  uses, with sender-assigned sequence numbers, so tag matching,
  wildcard receives and the canonical ``(src, seq)`` drain order are
  *identical* to the simulator.  That is the determinism argument for
  backend-equivalent physics: every consumer in the tree either names
  its source, indexes collective results by ``status.source``, or
  drains in canonical order.
* **collectives built from point-to-point** — by construction: the
  workers drive :class:`repro.machine.simmpi.Comm` unchanged, whose
  barrier/bcast/gather/reduce are already compositions of the
  send/recv primitives.
* **reserved-tag control channel** — a per-worker duplex pipe carrying
  frames tagged :data:`CTRL_TAG` (above the entire collective tag
  space): ``done``/``error`` up, ``abort``/``exit`` down.  Results,
  measured metrics and trace events travel here, never on data pipes.
* **one worker group** — :class:`RankWorkers` owns what is specific to
  ranks (inbox pipes, transport locks, uplinks, the shared-memory
  sweep) over one supervised :class:`repro.backend.proc.Child` per
  rank, whose control frames and sentinels it turns into one
  ``done``/``error``/``crash`` event per rank, and :class:`ChunkOutcome`
  the bookkeeping and the ending: a worker crash or timeout surfaces as
  the typed :class:`repro.machine.faults.RankFailure`, a program error
  as the re-raised original exception.  The cluster's node daemon hosts
  its ranks through the same two classes; there a destination without
  a local inbox is off-host and its frames leave through the worker's
  uplink pipe (:meth:`_Engine._transmit` is the one transmit site).
* **one ordered event log** — a traced worker records into an
  :class:`repro.obs.tracer.EventLog`, the same recording path every
  tracer shares; the log rides the ``done`` payload and the parent
  extends its own tracer with it (``tracer.extend(log)``), ranks
  ascending, so a step-detecting tracer (the trace store's per-step
  index) sees what it sees on ``sim``.

Time is **measured, not modeled**: workers account host wall-clock
seconds into the cells of the standard
:class:`repro.machine.metrics.RankMetrics` row (generator execution →
``compute``, transport injection → ``comm``, blocked receives →
``wait``), so every Table-1/3/4-style rollup downstream works on
measured numbers — flagged
``measured=True`` and never fed to golden traces or canonical BENCH
sections.  See ``docs/backends.md`` for the full determinism contract.
"""

from __future__ import annotations

import glob
import itertools
import math
import os
import pickle
import time
import traceback
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import Any, Callable, Generator, Iterable, Sequence

import numpy as np

from repro.backend import proc
from repro.backend.api import (
    BackendResult,
    BackendUnavailable,
    ExecutionBackend,
    RankProgram,
)
from repro.machine.event import Mailbox, Message
from repro.machine.faults import RankFailure
from repro.machine.metrics import PhaseRollup, RankMetrics
from repro.machine.simmpi import Comm
from repro.obs.tracer import EventLog

__all__ = [
    "MpBackend",
    "RankWorkers",
    "ChunkOutcome",
    "CTRL_TAG",
    "SHM_THRESHOLD",
    "SLEEP_CAP",
    "check_measured_run",
    "mp_available",
    "restage_frame",
]

#: Tag carried by every control-channel frame.  Sits above the entire
#: collective tag space (``simmpi._COLL_TAG_BASE`` + named collectives
#: < 2e11) so no data tag — user or collective — can ever alias a
#: control frame, and a control frame arriving where data is
#: expected is detectable by tag alone.
CTRL_TAG = 200_000_000_000

#: Arrays and frames at or above this many bytes travel through POSIX
#: shared memory instead of the pipe: half a Linux pipe buffer, so a
#: frame can never fill a pipe alone.
SHM_THRESHOLD = 32 * 1024

#: Upper bound actually slept for one modeled ``elapse`` pause.
SLEEP_CAP = 0.005

#: Wall-clock supervision limit for one chunk, in seconds, on the mp
#: and cluster engines alike: past it the workers are aborted and a
#: :class:`repro.machine.faults.RankFailure` names the unfinished ranks.
RUN_TIMEOUT = 120.0

_INF = math.inf
_run_counter = itertools.count()


def mp_available() -> str | None:
    """``None`` if the mp backend can run here, else the reason it cannot."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return (
            "requires the 'fork' start method (each chunk forks its "
            "ranks, which inherit their programs unpickled)"
        )
    return None


def _untrack_shm(name: str) -> None:
    """Withdraw a segment from this process's resource tracker.

    CPython (POSIX) registers a ``SharedMemory`` with the resource
    tracker on *attach* as well as create; since segment lifetime here
    is managed explicitly (receiver unlinks after copying, the worker
    group sweeps leftovers), tracker bookkeeping would only produce
    noisy double-unlink warnings at interpreter exit.
    """
    try:
        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:  # pragma: no cover - best-effort on exotic platforms
        pass


def stage(runid: str, key: str, data: Any) -> str:
    """Copy bytes-like ``data`` into a fresh shared-memory segment named
    ``{runid}_{key}`` — the run id is what lets :func:`_sweep` find a
    segment no receiver ever took — and return the name."""
    view = memoryview(data)
    name = f"{runid}_{key}"
    shm = shared_memory.SharedMemory(
        create=True, size=max(1, view.nbytes), name=name
    )
    _untrack_shm(name)
    shm.buf[: view.nbytes] = view
    shm.close()
    return name


def take(name: str, size: int) -> bytearray:
    """Copy ``size`` bytes out of a staged segment and unlink it."""
    # Attach registers with the resource tracker and unlink() below
    # unregisters — a matched pair, so no explicit _untrack_shm here
    # (it would double-unregister).
    shm = shared_memory.SharedMemory(name=name)
    try:
        return bytearray(shm.buf[:size])
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - racing sweep
            pass


def _sweep(runid: str) -> None:
    """Unlink every segment of ``runid`` still staged: messages in
    flight at abort time have segments no receiver will ever take."""
    for path in glob.glob(f"/dev/shm/{runid}_*"):
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - already gone
            pass


class _Staged:
    """Pickles as ``load(*args)``: a reference to a staged segment,
    whose load takes the segment (so each is loaded at most once)."""

    def __init__(self, load: Callable[..., Any], *args: Any) -> None:
        self._reduce = (load, args)

    def __reduce__(self) -> tuple:
        return self._reduce


def _take_array(name: str, shape: tuple, dtype: str) -> np.ndarray:
    dt = np.dtype(dtype)
    raw = take(name, math.prod(shape) * dt.itemsize)
    return np.frombuffer(raw, dtype=dt).reshape(shape)


def _take_frame(name: str, size: int) -> Any:
    return pickle.loads(take(name, size))


def restage_frame(frame: bytes, runid: str, key: str) -> bytes:
    """Stage opaque ``frame`` bytes whole in shared memory and return
    the short pickle whose load takes the segment and unpickles it: how
    an oversized frame stays off a pipe, in a worker and in a node
    daemon alike (the daemon never opens a frame)."""
    ref = _Staged(_take_frame, stage(runid, key, frame), len(frame))
    return pickle.dumps(ref, protocol=pickle.HIGHEST_PROTOCOL)


class _Abort(Exception):
    """Parent told this worker to stop (a peer failed)."""


class _Engine:
    """Interprets one rank's primitive stream against real transport.

    The primitive contract is the one
    :meth:`repro.machine.scheduler.Simulator._dispatch` defines; this
    class is its measured-time twin.  Wall accounting: the gap between
    two yields (user generator code executing) is charged ``compute``;
    the time inside a send (serialise + pipe write) is ``comm``; the
    time blocked for a matching message is ``wait``.

    ``writers[dst] is None`` marks an off-host destination (cluster
    only): those frames are handed to the node daemon over ``uplink``
    instead of a local inbox, and never stage through shared memory
    (segments do not cross hosts — the bytes travel inline and the
    receiving daemon restages oversized ones locally, unopened).
    """

    def __init__(
        self,
        rank: int,
        nranks: int,
        reader: Any,
        writers: Sequence[Any],
        locks: Sequence[Any],
        ctrl: Any,
        *,
        runid: str,
        metrics: RankMetrics,
        trace: bool,
        uplink: Any = None,
    ) -> None:
        self.rank = rank
        self.nranks = nranks
        self.reader = reader
        self.writers = writers
        self.locks = locks
        self.ctrl = ctrl
        self.uplink = uplink
        self.runid = runid
        self.metrics = metrics
        self.mailbox = Mailbox()
        self.phase = "default"
        self.tracer: EventLog | None = EventLog() if trace else None
        self._seq = 0       # sender-local: strictly increasing per sender
        self._arrival = 0   # receiver-local arrival ordinal
        self._clock0 = metrics.final_clock
        self._t0 = time.perf_counter()

    # -- clocks and accounting ------------------------------------------

    def wall(self) -> float:
        """Measured clock: carried start clock + wall seconds elapsed."""
        return self._clock0 + (time.perf_counter() - self._t0)

    def _charge(self, kind: str, t0: float, t1: float, *, flops: float = 0.0,
                nbytes: int = 0) -> None:
        """Account one span: into the metrics row, and as a tracer op."""
        dt = t1 - t0
        if dt > 0.0:
            self.metrics.add_time(self.phase, kind, dt)
        if self.tracer is not None and (dt > 0.0 or flops or nbytes):
            self.tracer.op(self.rank, self.phase, kind, t0, t1, flops, nbytes)

    def _received(self, msgs: list[Message], t: float) -> None:
        """Account consumed messages: the counter, and tracer recvs."""
        self.metrics.messages_received += len(msgs)
        if self.tracer is not None:
            for m in msgs:
                self.tracer.recv(
                    t, self.rank, m.src, m.tag, m.nbytes, self.phase
                )

    # -- transport ------------------------------------------------------

    def _encode(
        self, tag: int, payload: Any, nbytes: int, shm_ok: bool = True
    ) -> bytes:
        """One frame: a single pickle, or with ``shm_ok`` (the
        destination shares this host) at most one staged segment."""
        self._seq += 1
        seq = self._seq
        key = f"{self.rank}_{seq}"
        if (
            shm_ok
            and isinstance(payload, np.ndarray)
            and payload.nbytes >= SHM_THRESHOLD
        ):
            arr = np.ascontiguousarray(payload)
            name = stage(self.runid, key, arr.reshape(-1).view(np.uint8))
            payload = _Staged(_take_array, name, arr.shape, arr.dtype.str)
        frame = pickle.dumps(
            (self.rank, tag, seq, nbytes, payload),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        if shm_ok and len(frame) >= SHM_THRESHOLD:
            frame = restage_frame(frame, self.runid, key)
        return frame

    def _transmit(self, dst: int, frame: bytes) -> None:
        """Deliver one encoded frame to another rank's inbox — the one
        place a frame leaves this worker."""
        # Opportunistically drain our own inbox first so a blocked
        # peer writing to us is never part of a write cycle involving
        # our own blocking write below.
        self._pump(0.0)
        if self.writers[dst] is None:
            self.uplink.send((dst, frame))
            return
        with self.locks[dst]:
            self.writers[dst].send_bytes(frame)

    def _deposit(self, frame: bytes) -> None:
        src, tag, seq, nbytes, payload = pickle.loads(frame)
        self._arrival += 1
        self.mailbox.deposit(
            Message(
                src=src,
                dst=self.rank,
                tag=tag,
                payload=payload,
                nbytes=nbytes,
                send_time=0.0,
                # Receiver-local arrival ordinal: every deposited message
                # is immediately receivable (matching probes use now=inf)
                # and wildcard peeks see true arrival order, as in MPI.
                arrival_time=float(self._arrival),
                seq=seq,
            )
        )

    def _pump(self, timeout: float = 0.0) -> bool:
        """Move every available frame from the pipe into the mailbox."""
        got = False
        t = timeout
        try:
            while self.reader.poll(t):
                self._deposit(self.reader.recv_bytes())
                got = True
                t = 0.0
        except EOFError:  # pragma: no cover - peers gone during teardown
            pass
        return got

    def _block_until(self, probe: Any) -> Any:
        """Sleep on the inbox and the control pipe (an abort wakes the
        rank at once) until ``probe()`` returns something truthy."""
        got = probe()
        while not got:
            self._check_ctrl()
            proc.wait([self.reader, self.ctrl], None)
            self._pump(0.0)
            got = probe()
        return got

    def _check_ctrl(self) -> None:
        while self.ctrl.poll(0):
            frame = self.ctrl.recv()
            if frame[0] == CTRL_TAG and frame[1] in ("abort", "exit"):
                raise _Abort(frame[1])

    # -- primitive interpreter -----------------------------------------

    def run(self, gen: Generator) -> Any:
        """Drive one rank generator to completion; returns its value."""
        send_value: Any = None
        mark = time.perf_counter()
        while True:
            try:
                op = gen.send(send_value)
            except StopIteration as stop:
                now = time.perf_counter()
                self._charge(
                    "compute", self._stamp(mark), self._stamp(now)
                )
                self.metrics.final_clock = self.wall()
                return stop.value
            now = time.perf_counter()
            # Gap between yields: the rank's own Python execution.
            self._charge("compute", self._stamp(mark), self._stamp(now))
            send_value = self._dispatch(op)
            mark = time.perf_counter()

    def _stamp(self, perf: float) -> float:
        return self._clock0 + (perf - self._t0)

    def _dispatch(self, op: tuple) -> Any:
        kind = op[0]
        if kind == "compute":
            _, dt, flops = op
            if dt < 0:
                raise ValueError(
                    f"negative time increment {dt} in phase {self.phase!r}"
                )
            if flops:
                self.metrics.add_flops(self.phase, flops)
            elif dt > 0.0:
                # Pure elapse = a protocol pause (e.g. a detection
                # timeout).  Modeled flops are *not* slept — the
                # measured run times real execution only — but pauses
                # must really pause or polling loops spin hot.  Capped
                # so modeled virtual seconds can never stall the host.
                t0 = self.wall()
                time.sleep(min(dt, SLEEP_CAP))
                self._charge("compute", t0, self.wall())
            return None
        if kind == "inject":
            _, dst, tag, payload, nbytes = op
            t0 = self.wall()
            frame = self._encode(
                tag, payload, nbytes, shm_ok=self.writers[dst] is not None
            )
            if dst == self.rank:
                # Self-send: same value semantics as remote (the pickle
                # round-trip isolates the payload), minus the pipe.
                self._deposit(frame)
            else:
                self._transmit(dst, frame)
            self._charge("comm", t0, self.wall(), nbytes=nbytes)
            self.metrics.messages_sent += 1
            self.metrics.bytes_sent += nbytes
            if self.tracer is not None:
                self.tracer.send(t0, self.rank, dst, tag, nbytes, self.phase)
            return None
        if kind == "recv":
            _, src, tag = op
            t0 = self.wall()
            msg = self._block_until(
                lambda: self.mailbox.pop_matching(
                    src, tag, _INF, allow_future=True
                )
            )
            t1 = self.wall()
            self._charge("wait", t0, t1, nbytes=msg.nbytes)
            self._received([msg], t1)
            return msg
        if kind == "waitany":
            t0 = self.wall()
            peek = self.mailbox.peek_matching
            ready = self._block_until(
                lambda: tuple(
                    i
                    for i, (src, tag) in enumerate(op[1])
                    if peek(src, tag, _INF, allow_future=True) is not None
                )
            )
            self._charge("wait", t0, self.wall())
            return ready
        if kind == "drain":
            _, src, tag = op
            self._check_ctrl()
            self._pump(0.0)
            msgs = self.mailbox.pop_all_matching(src, tag, _INF)
            if msgs:
                self._received(msgs, self.wall())
            return msgs
        if kind == "iprobe":
            _, src, tag = op
            self._check_ctrl()
            self._pump(0.0)
            return (
                self.mailbox.peek_matching(src, tag, _INF, allow_future=True)
                is not None
            )
        if kind == "now":
            return self.wall()
        if kind == "set_phase":
            old, self.phase = self.phase, op[1]
            if self.tracer is not None:
                self.tracer.phase(self.rank, self.wall(), self.phase)
            return old
        raise ValueError(  # pragma: no cover - API misuse guard
            f"unknown primitive op {kind!r} from rank {self.rank}"
        )


def _worker_main(
    ctrl: Any,
    machine: Any,
    program: RankProgram,
    init: Callable[[], None] | None,
    rank: int,
    nranks: int,
    reader: Any,
    writers: Sequence[Any],
    locks: Sequence[Any],
    **options: Any,
) -> None:
    """Entry point of one forked rank process (a :class:`proc.Child`
    target: ``ctrl`` comes first): ``init``, then an :class:`_Engine`
    (``options``) drives the program and reports over ``ctrl``."""
    try:
        if init is not None:
            init()
        engine = _Engine(
            rank, nranks, reader, writers, locks, ctrl, **options
        )
        retval = engine.run(program(Comm(rank, nranks, machine)))
        payload = pickle.dumps(
            (retval, engine.metrics, engine.tracer),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        ctrl.send((CTRL_TAG, "done", payload))
    except _Abort:
        os._exit(3)
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        tb = traceback.format_exc()
        try:
            blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            blob = None
        try:
            ctrl.send((CTRL_TAG, "error", (blob, tb)))
        except Exception:  # pragma: no cover - parent already gone
            pass
        os._exit(4)
    # Linger until the parent acknowledges: exiting now would close our
    # pipe ends while peers may still be running, and a late writer to a
    # closed pipe dies with BrokenPipeError.  The parent sends "exit"
    # once *every* rank has reported done, or "abort" on failure.
    try:
        while True:
            if ctrl.poll(60.0):
                frame = ctrl.recv()
                if frame[0] == CTRL_TAG and frame[1] in ("exit", "abort"):
                    break
            else:  # pragma: no cover - orphaned worker safety valve
                break
    except (EOFError, OSError):  # pragma: no cover - parent died first
        pass
    os._exit(0)


class RankWorkers:
    """The forked worker processes of one chunk's local ranks.

    Owns what is rank-specific in both measured engines: an inbox pipe
    and transport lock per local rank (plus an uplink pipe each when
    some of the ``nranks`` live elsewhere), the shared-memory sweep, and
    one supervised :class:`proc.Child` per rank, whose classification
    and stop ladder it applies group-wide.  ``programs`` and ``metrics``
    are indexed by rank (a rank's clock resumes at its row's
    ``final_clock``); ``worker_init`` runs in each child before its
    engine exists.

    The parent keeps the inbox ``writers`` (and ``locks``): the mp
    backend never uses them, a node daemon deposits inbound frames
    there, and reads outbound ones from ``uplinks``.
    """

    def __init__(
        self,
        ranks: Iterable[int],
        nranks: int,
        machine: Any,
        programs: Any,
        *,
        runid: str,
        metrics: Any,
        trace: bool,
        worker_init: Callable[[], None] | None = None,
    ) -> None:
        ctx = get_context("fork")
        self.ranks = list(ranks)
        self.runid = runid
        self.pending = set(self.ranks)  # no done / error / crash event yet
        self.writers: list[Any] = [None] * nranks
        self.locks: list[Any] = [None] * nranks
        self.uplinks: dict[int, Any] = {}
        self._children: dict[int, proc.Child] = {}
        readers: dict[int, Any] = {}
        uplink_w: dict[int, Any] = {}
        for r in self.ranks:
            readers[r], self.writers[r] = ctx.Pipe(duplex=False)
            self.locks[r] = ctx.Lock()
            if len(self.ranks) < nranks:
                self.uplinks[r], uplink_w[r] = ctx.Pipe(duplex=False)
        try:
            for r in self.ranks:
                self._children[r] = proc.Child(
                    ctx,
                    _worker_main,
                    (
                        machine, programs[r], worker_init, r, nranks,
                        readers[r], self.writers, self.locks,
                    ),
                    dict(
                        runid=runid,
                        metrics=metrics[r],
                        trace=trace,
                        uplink=uplink_w.get(r),
                    ),
                    daemon=True,
                )
        except BaseException:
            self.close()
            raise
        finally:
            # The worker-held ends are unused in the parent.
            for end in (*readers.values(), *uplink_w.values()):
                end.close()

    def waitables(self) -> list[Any]:
        """What to :func:`proc.wait` on for :meth:`events`: control
        pipe and process sentinel of every rank not yet reported."""
        return [
            w for r in self.pending for w in self._children[r].waitables()
        ]

    def events(self, ready: Iterable[Any]) -> list[tuple[int, str, Any]]:
        """Turn ready waitables into ``(rank, kind, payload)`` events,
        exactly one per rank over the group's life: ``"done"`` (the
        pickled result), ``"error"`` (``(pickled exception or None,
        traceback text)``) or ``"crash"`` (died without either)."""
        fired = set(ready)
        out: list[tuple[int, str, Any]] = []
        for rank in sorted(self.pending):
            child = self._children[rank]
            if fired.isdisjoint(child.waitables()):
                continue
            got = child.take()
            if got is None:
                continue
            self.pending.discard(rank)
            crashed = isinstance(got, proc.Crash)
            kind, payload = ("crash", None) if crashed else got[1:]
            out.append((rank, kind, payload))
        return out

    def stop(self, how: str, grace: float) -> None:
        """Send every worker ``"exit"`` (the chunk is over) or
        ``"abort"`` (a peer failed) and walk them down the stop ladder:
        ``grace`` seconds to leave, then SIGTERM, then SIGKILL."""
        proc.stop(self._children.values(), (CTRL_TAG, how, None), grace)

    def close(self) -> None:
        """Reap whatever :meth:`stop` has not, close the pipes and sweep
        shared-memory leftovers; idempotent, and safe on a half-built
        group."""
        proc.stop(self._children.values())
        for end in (*self.uplinks.values(), *filter(None, self.writers)):
            try:
                end.close()
            except OSError:  # pragma: no cover
                pass
        _sweep(self.runid)


class ChunkOutcome:
    """What became of each rank of one chunk, and how the chunk ends.

    ``done`` maps rank to its pickled ``(return value, metrics, event
    log)``, ``errors`` to ``(pickled exception or None, traceback)``,
    ``failed`` to the seconds into the chunk at which the rank was
    lost (crash, node loss, timeout); ``pending`` is everyone else.
    """

    def __init__(self, backend: str, nranks: int) -> None:
        self.backend = backend
        self.nranks = nranks
        self.pending = set(range(nranks))
        self.done: dict[int, bytes] = {}
        self.errors: dict[int, tuple] = {}
        self.failed: dict[int, float] = {}

    def record(self, rank: int, kind: str, payload: Any, t: float) -> None:
        """File one :meth:`RankWorkers.events` event, seen at ``t``."""
        if rank not in self.pending:
            return
        self.pending.discard(rank)
        if kind == "done":
            self.done[rank] = payload
        elif kind == "error":
            self.errors[rank] = payload
        else:
            self.failed[rank] = t

    def fail(self, ranks: Iterable[int], t: float) -> None:
        """Give up on those of ``ranks`` still pending."""
        for rank in sorted(self.pending.intersection(ranks)):
            self.record(rank, "crash", None, t)

    @property
    def finished(self) -> bool:
        """Nothing left to wait for: all reported, or one went wrong."""
        return not self.pending or bool(self.errors or self.failed)

    @property
    def clean(self) -> bool:
        return not (self.pending or self.errors or self.failed)

    def result(self, tracer: EventLog | None) -> BackendResult:
        """The chunk's ending: re-raise the lowest failing rank's own
        exception (traceback attached as a note), else raise
        :class:`RankFailure`, else unpack the ``done`` payloads —
        extending ``tracer`` (None: tracing is off) with each rank's
        event log, ranks ascending."""
        if self.errors:
            rank = min(self.errors)
            blob, tb = self.errors[rank]
            exc: BaseException | None = None
            if blob is not None:
                try:
                    exc = pickle.loads(blob)
                except Exception:
                    exc = None
            if exc is None:
                raise RuntimeError(
                    f"rank {rank} raised in the {self.backend} backend:\n{tb}"
                )
            exc.add_note(f"raised in {self.backend} worker rank {rank}:\n{tb}")
            raise exc
        if self.failed:
            raise RankFailure(
                failed=self.failed,
                time=max(self.failed.values()),
                blocked=[],
                completed=sorted(self.done),
                nranks=self.nranks,
            )
        returns: list[Any] = [None] * self.nranks
        ranks = [RankMetrics(r) for r in range(self.nranks)]
        for rank in sorted(self.done):
            returns[rank], ranks[rank], log = pickle.loads(self.done[rank])
            if log is not None and tracer is not None:
                tracer.extend(log)
        metrics = PhaseRollup(ranks)
        return BackendResult(
            elapsed=metrics.elapsed,
            returns=returns,
            metrics=metrics,
            backend=self.backend,
            measured=True,
        )


def check_measured_run(
    machine: Any,
    programs: Sequence[RankProgram],
    tracer: Any,
    sanitizer: Any,
    fault_plan: Any,
    initial_metrics: Sequence[Any] | None,
    fault_hint: str = "",
) -> tuple[list[RankMetrics], bool]:
    """Validate ``run`` arguments for a measured engine (mp, cluster)
    and switch the tracer to wall time; returns the ranks' metrics rows
    (fresh ones when none are carried) and whether tracing is on."""
    if sanitizer is not None:
        raise ValueError(
            "the sanitizer shadow layer needs deterministic virtual "
            "time; use --backend sim for sanitized runs"
        )
    if fault_plan:
        raise ValueError(
            "fault injection needs deterministic virtual time; "
            f"use --backend sim for fault experiments{fault_hint}"
        )
    n = len(programs)
    if n == 0:
        raise ValueError("no rank programs given")
    if n > machine.nodes:
        raise ValueError(
            f"machine has {machine.nodes} nodes; cannot run {n} ranks"
        )
    if initial_metrics is not None and len(initial_metrics) != n:
        raise ValueError(
            f"initial_metrics has {len(initial_metrics)} entries for {n} ranks"
        )
    trace_enabled = tracer is not None
    if trace_enabled:
        tracer.clock = "wall"
    rows = (
        [RankMetrics(r) for r in range(n)]
        if initial_metrics is None
        else list(initial_metrics)
    )
    return rows, trace_enabled


class MpBackend(ExecutionBackend):
    """Execute each rank as a real ``multiprocessing`` process,
    supervised for at most :data:`RUN_TIMEOUT` seconds per run.

    Unsupported features — requesting them raises ``ValueError``: the
    sanitizer shadow layer and fault injection both require the
    deterministic simulator (``--backend sim``).
    """

    name = "mp"
    measured = True

    def __init__(self) -> None:
        reason = mp_available()
        if reason is not None:
            raise BackendUnavailable(f"backend 'mp' unavailable: {reason}")

    def run(
        self,
        machine: Any,
        programs: Sequence[RankProgram],
        *,
        tracer: Any = None,
        sanitizer: Any = None,
        fault_plan: Any = None,
        initial_metrics: Sequence[Any] | None = None,
    ) -> BackendResult:
        rows, trace_enabled = check_measured_run(
            machine, programs, tracer, sanitizer, fault_plan, initial_metrics,
        )
        n = len(rows)
        outcome = ChunkOutcome(self.name, n)
        t_start = time.monotonic()
        workers = RankWorkers(
            range(n), n, machine, programs,
            runid=f"repro_mp_{os.getpid()}_{next(_run_counter)}",
            metrics=rows,
            trace=trace_enabled,
        )
        deadline = t_start + RUN_TIMEOUT
        try:
            # All ranks are local: file events until every rank has
            # reported, one went wrong, or the timeout trips.
            while not outcome.finished:
                ready = proc.wait(workers.waitables(), deadline)
                if not ready:
                    outcome.fail(outcome.pending, time.monotonic() - t_start)
                for rank, kind, payload in workers.events(ready):
                    outcome.record(
                        rank, kind, payload, time.monotonic() - t_start
                    )
        finally:
            if outcome.clean:
                workers.stop("exit", grace=proc.EXIT_GRACE)
            else:
                workers.stop("abort", grace=proc.ABORT_GRACE)
            workers.close()
        return outcome.result(tracer if trace_enabled else None)
