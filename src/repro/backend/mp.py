"""Real multiprocess execution of rank programs.

Runs each rank as a genuine ``multiprocessing`` process (``fork`` start
method — rank programs are closures over driver state and cannot be
pickled) and interprets the very same primitive tuples the simulator's
scheduler dispatches, against real transport:

* **pickle-over-pipe point-to-point** — one OS pipe per destination
  rank, shared by all senders behind a per-destination lock.  Frames
  are capped: any payload whose serialised form reaches
  ``shm_threshold`` bytes moves through POSIX shared memory instead
  (``numpy`` arrays are copied raw, no pickling; everything else ships
  its pickle through a segment).  Keeping every pipe frame small means
  blocking writes cannot wedge the eager-send model the programs
  assume.
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
  barrier/bcast/gather/reduce/alltoall are already compositions of the
  send/recv primitives.
* **reserved-tag control channel** — a per-worker duplex pipe carrying
  frames tagged :data:`CTRL_TAG` (above the entire collective tag
  space): ``done``/``error`` up, ``abort``/``exit`` down.  Results,
  measured metrics and trace events travel here, never on data pipes.
* **supervision** — the parent waits on control pipes and process
  sentinels; a worker crash (non-zero exit without a result), a worker
  timeout, or an ``error`` frame aborts the surviving workers and
  surfaces as the existing typed
  :class:`repro.machine.faults.RankFailure` (crash/timeout) or the
  re-raised original exception (program error).

Time is **measured, not modeled**: workers account host wall-clock
seconds into the standard :class:`repro.machine.metrics.RankMetrics`
shapes (generator execution → ``compute``, transport injection →
``comm``, blocked receives → ``wait``), so every Table-1/3/4-style
rollup downstream works on measured numbers — flagged
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
from multiprocessing import connection, get_context, resource_tracker, shared_memory
from typing import Any, Generator, Sequence

import numpy as np

from repro.backend.api import (
    BackendResult,
    BackendUnavailable,
    ExecutionBackend,
    RankProgram,
)
from repro.machine.event import Mailbox, Message
from repro.machine.faults import RankFailure
from repro.machine.metrics import MachineMetrics, RankMetrics
from repro.machine.simmpi import Comm

__all__ = ["MpBackend", "CTRL_TAG", "mp_available"]

#: Tag carried by every control-channel frame.  Sits above the entire
#: collective tag space (``simmpi._COLL_TAG_BASE`` + named collectives
#: < 2e11) so no data tag — user, group-offset or collective — can ever
#: alias a control frame, and a control frame arriving where data is
#: expected is detectable by tag alone.
CTRL_TAG = 200_000_000_000

_FRAME_INLINE = 0      # payload pickled inline in the pipe frame
_FRAME_SHM_ARRAY = 1   # contiguous ndarray copied raw into shared memory
_FRAME_SHM_PICKLE = 2  # oversized pickle staged through shared memory

_INF = math.inf
_run_counter = itertools.count()


def mp_available() -> str | None:
    """``None`` if the mp backend can run here, else the reason it cannot."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return (
            "requires the 'fork' start method (rank programs are closures "
            "and cannot be pickled for spawn)"
        )
    return None


def _untrack_shm(name: str) -> None:
    """Withdraw a segment from this process's resource tracker.

    CPython (POSIX) registers a ``SharedMemory`` with the resource
    tracker on *attach* as well as create; since segment lifetime here
    is managed explicitly (receiver unlinks after copying, parent
    sweeps leftovers), tracker bookkeeping would only produce noisy
    double-unlink warnings at interpreter exit.
    """
    try:
        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:  # pragma: no cover - best-effort on exotic platforms
        pass


class _Abort(Exception):
    """Parent told this worker to stop (a peer failed)."""


class _TraceLog:
    """Per-worker event buffers mirroring :class:`SpanTracer` lists."""

    __slots__ = ("ops", "phases", "sends", "recvs")

    def __init__(self) -> None:
        self.ops: list[tuple] = []
        self.phases: list[tuple] = []
        self.sends: list[tuple] = []
        self.recvs: list[tuple] = []


class _Engine:
    """Interprets one rank's primitive stream against real transport.

    The primitive contract is the one
    :meth:`repro.machine.scheduler.Simulator._dispatch` defines; this
    class is its measured-time twin.  Wall accounting: the gap between
    two yields (user generator code executing) is charged ``compute``;
    the time inside a send (serialise + pipe write) is ``comm``; the
    time blocked for a matching message is ``wait``.
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
        shm_threshold: int,
        poll_interval: float,
        sleep_cap: float,
        start_clock: float,
        metrics: RankMetrics,
        trace: bool,
    ) -> None:
        self.rank = rank
        self.nranks = nranks
        self.reader = reader
        self.writers = writers
        self.locks = locks
        self.ctrl = ctrl
        self.runid = runid
        self.shm_threshold = shm_threshold
        self.poll_interval = poll_interval
        self.sleep_cap = sleep_cap
        self.metrics = metrics
        self.mailbox = Mailbox()
        self.phase = "default"
        self.events = _TraceLog() if trace else None
        self._seq = 0       # sender-local: strictly increasing per sender
        self._arrival = 0   # receiver-local arrival ordinal
        self._clock0 = start_clock
        self._t0 = time.perf_counter()

    # -- clocks ---------------------------------------------------------

    def wall(self) -> float:
        """Measured clock: carried start clock + wall seconds elapsed."""
        return self._clock0 + (time.perf_counter() - self._t0)

    def _charge(self, kind: str, t0: float, t1: float, *, flops: float = 0.0,
                nbytes: int = 0) -> None:
        dt = t1 - t0
        if dt > 0.0:
            self.metrics.time[self.phase][kind] += dt
        if self.events is not None and (dt > 0.0 or flops or nbytes):
            self.events.ops.append(
                (self.rank, self.phase, kind, t0, t1, flops, nbytes)
            )

    # -- transport ------------------------------------------------------

    def _encode(
        self, tag: int, payload: Any, nbytes: int, shm_ok: bool = True
    ) -> bytes:
        self._seq += 1
        seq = self._seq
        if (
            shm_ok
            and isinstance(payload, np.ndarray)
            and payload.nbytes >= self.shm_threshold
        ):
            arr = np.ascontiguousarray(payload)
            name = f"{self.runid}_{self.rank}_{seq}"
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, arr.nbytes), name=name
            )
            _untrack_shm(shm.name.lstrip("/"))
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            view[...] = arr
            body = (_FRAME_SHM_ARRAY, (name, arr.shape, arr.dtype.str))
            shm.close()
        else:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            if shm_ok and len(blob) >= self.shm_threshold:
                name = f"{self.runid}_{self.rank}_{seq}"
                shm = shared_memory.SharedMemory(
                    create=True, size=len(blob), name=name
                )
                _untrack_shm(shm.name.lstrip("/"))
                shm.buf[: len(blob)] = blob
                body = (_FRAME_SHM_PICKLE, (name, len(blob)))
                shm.close()
            else:
                body = (_FRAME_INLINE, blob)
        return pickle.dumps(
            (self.rank, tag, seq, nbytes, body),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def _shm_ok(self, dst: int) -> bool:
        """Whether payloads to ``dst`` may stage through shared memory.

        All destinations share the host here; the cluster engine
        overrides this to gate the fast path to same-node peers.
        """
        return True

    def _transmit(self, dst: int, frame: bytes) -> None:
        """Deliver one encoded frame to a remote rank's inbox."""
        # Opportunistically drain our own inbox first so a blocked
        # peer writing to us is never part of a write cycle involving
        # our own blocking write below.
        self._pump(0.0)
        with self.locks[dst]:
            self.writers[dst].send_bytes(frame)

    def _deposit(self, frame: bytes) -> None:
        src, tag, seq, nbytes, (kind, data) = pickle.loads(frame)
        if kind == _FRAME_INLINE:
            payload = pickle.loads(data)
        elif kind == _FRAME_SHM_ARRAY:
            name, shape, dtype = data
            # Note: attach registers with the resource tracker and
            # unlink() below unregisters — a matched pair, so no
            # explicit _untrack_shm here (it would double-unregister).
            shm = shared_memory.SharedMemory(name=name)
            try:
                payload = np.ndarray(
                    shape, dtype=np.dtype(dtype), buffer=shm.buf
                ).copy()
            finally:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - racing sweep
                    pass
        elif kind == _FRAME_SHM_PICKLE:
            name, size = data
            shm = shared_memory.SharedMemory(name=name)
            try:
                payload = pickle.loads(bytes(shm.buf[:size]))
            finally:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - racing sweep
                    pass
        else:  # pragma: no cover - framing bug guard
            raise RuntimeError(f"unknown frame kind {kind!r}")
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
        """Sleep on the inbox (and the control pipe, in ``poll_interval``
        slices) until ``probe()`` returns something truthy."""
        got = probe()
        while not got:
            self._check_ctrl()
            if connection.wait([self.reader, self.ctrl], self.poll_interval):
                self._pump(0.0)
            got = probe()
        return got

    def _received(self, msgs: list[Message], t: float) -> None:
        self.metrics.messages_received += len(msgs)
        if self.events is not None:
            for m in msgs:
                self.events.recvs.append(
                    (t, self.rank, m.src, m.tag, m.nbytes, self.phase)
                )

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
                time.sleep(min(dt, self.sleep_cap))
                self._charge("compute", t0, self.wall())
            return None
        if kind == "inject":
            _, dst, tag, payload, nbytes = op
            t0 = self.wall()
            frame = self._encode(
                tag, payload, nbytes,
                shm_ok=dst == self.rank or self._shm_ok(dst),
            )
            if dst == self.rank:
                # Self-send: same value semantics as remote (the pickle
                # round-trip isolates the payload), minus the pipe.
                self._deposit(frame)
            else:
                self._transmit(dst, frame)
            t1 = self.wall()
            self.metrics.time[self.phase]["comm"] += t1 - t0
            self.metrics.messages_sent += 1
            self.metrics.bytes_sent += nbytes
            if self.events is not None:
                self.events.ops.append(
                    (self.rank, self.phase, "comm", t0, t1, 0.0, nbytes)
                )
                self.events.sends.append(
                    (t0, self.rank, dst, tag, nbytes, self.phase)
                )
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
            self.metrics.time[self.phase]["wait"] += t1 - t0
            if self.events is not None:
                self.events.ops.append(
                    (self.rank, self.phase, "wait", t0, t1, 0.0, msg.nbytes)
                )
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
        if kind == "tryrecv":
            _, src, tag = op
            self._check_ctrl()
            self._pump(0.0)
            msg = self.mailbox.pop_matching(src, tag, _INF, allow_future=True)
            if msg is not None:
                self._received([msg], self.wall())
            return msg
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
            if self.events is not None:
                self.events.phases.append((self.rank, self.wall(), self.phase))
            return old
        raise ValueError(  # pragma: no cover - API misuse guard
            f"unknown primitive op {kind!r} from rank {self.rank}"
        )


def _worker_main(
    rank: int,
    nranks: int,
    machine: Any,
    program: RankProgram,
    reader: Any,
    writers: Sequence[Any],
    locks: Sequence[Any],
    ctrl: Any,
    *,
    runid: str,
    shm_threshold: int,
    poll_interval: float,
    sleep_cap: float,
    start_clock: float,
    metrics: RankMetrics,
    trace: bool,
    engine_factory: Any = None,
) -> None:
    """Entry point of one forked rank process.

    ``engine_factory`` (default :class:`_Engine`) lets other backends
    reuse this whole lifecycle — result/error control frames, abort
    handling, the linger-until-acknowledged exit — with an engine
    subclass that routes off-host traffic differently (the cluster
    node daemon passes one wired to its uplink).
    """
    try:
        engine = (engine_factory or _Engine)(
            rank,
            nranks,
            reader,
            writers,
            locks,
            ctrl,
            runid=runid,
            shm_threshold=shm_threshold,
            poll_interval=poll_interval,
            sleep_cap=sleep_cap,
            start_clock=start_clock,
            metrics=metrics,
            trace=trace,
        )
        comm = Comm(rank, nranks, machine)
        retval = engine.run(program(comm))
        events = engine.events
        payload = pickle.dumps(
            (
                retval,
                engine.metrics,
                None
                if events is None
                else (events.ops, events.phases, events.sends, events.recvs),
            ),
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


def check_measured_run(
    machine: Any,
    programs: Sequence[RankProgram],
    tracer: Any,
    sanitizer: Any,
    fault_plan: Any,
    initial_clocks: Sequence[float] | None,
    initial_metrics: Sequence[Any] | None,
    fault_hint: str = "",
) -> tuple[int, bool]:
    """Validate ``run`` arguments for a measured engine (mp, cluster)
    and switch the tracer to wall time; ``(nranks, trace_enabled)``."""
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
    if initial_clocks is not None and len(initial_clocks) != n:
        raise ValueError(
            f"initial_clocks has {len(initial_clocks)} entries for {n} ranks"
        )
    if initial_metrics is not None and len(initial_metrics) != n:
        raise ValueError(
            f"initial_metrics has {len(initial_metrics)} entries for {n} ranks"
        )
    trace_enabled = tracer is not None and getattr(tracer, "enabled", False)
    if trace_enabled and getattr(tracer, "clock", "virtual") == "virtual":
        try:
            tracer.clock = "wall"
        except AttributeError:  # pragma: no cover - exotic tracer
            pass
    return n, trace_enabled


def measured_result(
    backend: str, done: dict[int, bytes], n: int, tracer: Any
) -> BackendResult:
    """Unpack the workers' ``done`` payloads into a result, replaying
    their trace events into ``tracer`` (None: tracing is off)."""
    returns: list[Any] = [None] * n
    metrics_list: list[RankMetrics] = [RankMetrics(r) for r in range(n)]
    for rank, payload in done.items():
        retval, met, events = pickle.loads(payload)
        returns[rank] = retval
        metrics_list[rank] = met
        if events is not None and tracer is not None:
            MpBackend._merge_trace(tracer, events)
    metrics = MachineMetrics(metrics_list)
    return BackendResult(
        elapsed=metrics.elapsed,
        returns=returns,
        metrics=metrics,
        failed_ranks=(),
        backend=backend,
        measured=True,
    )


class MpBackend(ExecutionBackend):
    """Execute each rank as a real ``multiprocessing`` process.

    Parameters
    ----------
    shm_threshold:
        Serialized payloads at or above this many bytes travel through
        POSIX shared memory instead of the pipe (default 32 KiB — half
        a Linux pipe buffer, so a frame can never fill a pipe alone).
    timeout:
        Wall-clock supervision limit for the whole run, in seconds.
        Exceeding it aborts the workers and raises
        :class:`repro.machine.faults.RankFailure` naming the
        unfinished ranks.  ``None`` disables the limit.
    poll_interval:
        Worker-side blocking-receive wakeup slice (seconds); bounds
        abort latency, not message latency (arrivals wake the worker
        immediately through ``connection.wait``).
    sleep_cap:
        Upper bound actually slept for one modeled ``elapse`` pause.

    Unsupported features — requesting them raises ``ValueError``: the
    sanitizer shadow layer and fault injection both require the
    deterministic simulator (``--backend sim``).
    """

    name = "mp"
    shared_state = False
    measured = True

    def __init__(
        self,
        shm_threshold: int = 32 * 1024,
        timeout: float | None = 120.0,
        poll_interval: float = 0.02,
        sleep_cap: float = 0.005,
    ) -> None:
        reason = mp_available()
        if reason is not None:
            raise BackendUnavailable(f"backend 'mp' unavailable: {reason}")
        self.shm_threshold = int(shm_threshold)
        self.timeout = timeout
        self.poll_interval = float(poll_interval)
        self.sleep_cap = float(sleep_cap)

    # ------------------------------------------------------------------

    def run(
        self,
        machine: Any,
        programs: Sequence[RankProgram],
        *,
        tracer: Any = None,
        sanitizer: Any = None,
        fault_plan: Any = None,
        initial_clocks: Sequence[float] | None = None,
        initial_metrics: Sequence[Any] | None = None,
        max_events: int = 500_000_000,
        raise_on_failure: bool = True,
    ) -> BackendResult:
        n, trace_enabled = check_measured_run(
            machine, programs, tracer, sanitizer, fault_plan,
            initial_clocks, initial_metrics,
        )
        ctx = get_context("fork")
        runid = f"repro_mp_{os.getpid()}_{next(_run_counter)}"
        readers, writers = [], []
        for _ in range(n):
            r, w = ctx.Pipe(duplex=False)
            readers.append(r)
            writers.append(w)
        locks = [ctx.Lock() for _ in range(n)]
        ctrl_parent, ctrl_child = [], []
        for _ in range(n):
            a, b = ctx.Pipe(duplex=True)
            ctrl_parent.append(a)
            ctrl_child.append(b)

        procs = []
        t_start = time.monotonic()
        try:
            for rank in range(n):
                clk = (
                    float(initial_clocks[rank])
                    if initial_clocks is not None
                    else 0.0
                )
                met = (
                    initial_metrics[rank]
                    if initial_metrics is not None
                    else RankMetrics(rank)
                )
                p = ctx.Process(
                    target=_worker_main,
                    args=(
                        rank,
                        n,
                        machine,
                        programs[rank],
                        readers[rank],
                        writers,
                        locks,
                        ctrl_child[rank],
                    ),
                    kwargs=dict(
                        runid=runid,
                        shm_threshold=self.shm_threshold,
                        poll_interval=self.poll_interval,
                        sleep_cap=self.sleep_cap,
                        start_clock=clk,
                        metrics=met,
                        trace=trace_enabled,
                    ),
                    daemon=True,
                    name=f"repro-mp-{rank}",
                )
                p.start()
                procs.append(p)
            # The parent's copies of the data-plane ends are unused.
            for r in readers:
                r.close()
            for w in writers:
                w.close()
            for c in ctrl_child:
                c.close()
            done, errors, failed = self._supervise(
                procs, ctrl_parent, t_start, n
            )
        finally:
            self._teardown(procs, ctrl_parent, runid)

        if errors:
            rank = min(errors)
            blob, tb = errors[rank]
            exc: BaseException | None = None
            if blob is not None:
                try:
                    exc = pickle.loads(blob)
                except Exception:
                    exc = None
            if exc is None:
                exc = RuntimeError(
                    f"rank {rank} raised in the mp backend:\n{tb}"
                )
            else:
                exc.add_note(f"raised in mp worker rank {rank}:\n{tb}")
            raise exc
        if failed:
            raise RankFailure(
                failed=failed,
                time=max(failed.values()),
                blocked=[],
                completed=sorted(done),
                nranks=n,
            )

        return measured_result(
            self.name, done, n, tracer if trace_enabled else None
        )

    # ------------------------------------------------------------------

    def _supervise(
        self,
        procs: list,
        ctrls: list,
        t_start: float,
        n: int,
    ) -> tuple[dict[int, bytes], dict[int, tuple], dict[int, float]]:
        """Wait for every worker; classify done / error / crashed."""
        done: dict[int, bytes] = {}
        errors: dict[int, tuple] = {}
        failed: dict[int, float] = {}
        pending = set(range(n))
        by_ctrl = {id(c): r for r, c in enumerate(ctrls)}
        by_sentinel = {procs[r].sentinel: r for r in range(n)}
        while pending and not errors and not failed:
            remaining = None
            if self.timeout is not None:
                remaining = self.timeout - (time.monotonic() - t_start)
                if remaining <= 0:
                    elapsed = time.monotonic() - t_start
                    for r in sorted(pending):
                        failed[r] = elapsed
                    break
            waitees: list[Any] = [ctrls[r] for r in pending]
            waitees += [procs[r].sentinel for r in pending]
            slice_ = 0.5 if remaining is None else min(0.5, remaining)
            ready = connection.wait(waitees, timeout=slice_)
            # Control frames first: a crashed-looking sentinel may still
            # have a buffered result.
            for obj in ready:
                rank = by_ctrl.get(id(obj))
                if rank is None or rank not in pending:
                    continue
                self._drain_ctrl(ctrls[rank], rank, done, errors, pending)
            for obj in ready:
                rank = by_sentinel.get(obj)
                if rank is None or rank not in pending:
                    continue
                # Exited without a result frame? Re-check the pipe once.
                self._drain_ctrl(ctrls[rank], rank, done, errors, pending)
                if rank in pending and not procs[rank].is_alive():
                    failed[rank] = time.monotonic() - t_start
                    pending.discard(rank)
        return done, errors, failed

    @staticmethod
    def _drain_ctrl(
        ctrl: Any,
        rank: int,
        done: dict[int, bytes],
        errors: dict[int, tuple],
        pending: set[int],
    ) -> None:
        try:
            while rank in pending and ctrl.poll(0):
                frame = ctrl.recv()
                if frame[0] != CTRL_TAG:  # pragma: no cover - framing guard
                    continue
                if frame[1] == "done":
                    done[rank] = frame[2]
                    pending.discard(rank)
                elif frame[1] == "error":
                    errors[rank] = frame[2]
                    pending.discard(rank)
        except (EOFError, OSError):
            pass

    def _teardown(self, procs: list, ctrls: list, runid: str) -> None:
        """Stop every worker and sweep shared-memory leftovers."""
        for c in ctrls:
            try:
                c.send((CTRL_TAG, "exit", None))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 5.0
        for p in procs:
            p.join(timeout=max(0.0, deadline - time.monotonic()))
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            if p.is_alive():  # pragma: no cover - terminate is enough
                p.join(timeout=1.0)
        for p in procs:
            p.close()
        for c in ctrls:
            try:
                c.close()
            except OSError:  # pragma: no cover
                pass
        # Messages in flight at abort time may have staged segments that
        # no receiver will ever unlink; the run id makes them findable.
        for path in glob.glob(f"/dev/shm/{runid}_*"):
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - already gone
                pass

    @staticmethod
    def _merge_trace(tracer: Any, events: tuple) -> None:
        """Replay a worker's event buffers through the tracer API."""
        ops, phases, sends, recvs = events
        for rank, phase, kind, t0, t1, flops, nbytes in ops:
            tracer.op(rank, phase, kind, t0, t1, flops, nbytes)
        for rank, t, name in phases:
            tracer.phase(rank, t, name)
        for t, src, dst, tag, nbytes, phase in sends:
            tracer.send(t, src, dst, tag, nbytes, phase)
        for t, rank, src, tag, nbytes, phase in recvs:
            tracer.recv(t, rank, src, tag, nbytes, phase)
