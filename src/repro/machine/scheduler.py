"""Conservative discrete-event scheduler for SimMPI rank programs.

The engine always advances the rank with the globally minimum virtual
time among (a) runnable ranks (key = their clock) and (b) ranks blocked
in ``recv`` or ``waitany`` with a message matching one of their patterns
already in their mailbox (key = the wake time, ``max(clock, earliest
matching arrival)``).  Because every future send
must be issued by a rank whose clock is at least that minimum, no
message that could alter a receive matching can arrive at or before the
chosen key — the classic conservative-PDES safety argument — so
execution is deterministic and independent of host scheduling.  Ties
are broken by rank id, making runs byte-for-byte reproducible.

Selection is a binary heap of ``(key, rank, ver)`` entries with lazy
invalidation, not a scan of all ranks per event.  A rank has at most
one *valid* entry — the one whose ``ver`` equals the rank's current
version; a blocked rank with nothing to match is *parked* (no valid
entry).  Only two things change the key of a rank that is not being
stepped, and both bump its version: ``_inject`` depositing a message
that matches its ``blocked_on`` (which pushes the new key, computed
from the earliest matching message) and ``_kill``.  Stale entries are
skipped when popped, so the heap holds one entry per rank plus one per
re-key not yet popped — never one per event.

**Run-ahead.**  After stepping the popped rank the loop recomputes its
key and, while ``(key, rank)`` still compares ``<=`` the heap top, steps
it again without touching the heap (poll/``elapse`` chains and compute
bursts of the minimum-clock rank).  This cannot reorder events:

1. every *other* rank with a key has a valid entry carrying its current
   key, because ``_inject`` pushed any key it lowered before the step
   returned;
2. the heap top is a lower bound on all entries, valid or stale, so a
   rank that is ``<=`` the top is ``<=`` every other rank's current key;
3. that is the rank the per-event scan would pick — same total order on
   ``(key, rank)``, one comparison instead of P.

``tests/machine/test_scheduler_order.py`` keeps the linear scan as a
reference and checks the two event sequences equal.

Two extensions support resilience experiments (:mod:`repro.resilience`):

* **Fault injection** — a :class:`repro.machine.faults.FaultPlan`
  fail-stops ranks at a virtual time or phase barrier.  A killed rank's
  mailbox is drained, messages addressed to it are black-holed, and,
  once no survivor can make progress, the scheduler raises a typed
  :class:`repro.machine.faults.RankFailure` (never a misleading
  :class:`DeadlockError`).
* **Carried rows** — ``initial_metrics`` lets a driver split one
  logical epoch into several scheduler runs without perturbing virtual
  time: each rank resumes at its carried row's ``final_clock``, and
  because matching, waking and tie-breaking depend only on virtual
  clocks (not host order), the resumed run is bit-identical to the
  unsplit run.  This is what makes checkpointing timing-neutral.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Generator

if TYPE_CHECKING:  # import would be circular at runtime (analysis -> machine)
    from repro.analysis.sanitizer import Sanitizer
    from repro.obs.tracer import EventLog

from repro.machine import event
from repro.machine.event import ANY_SOURCE, ANY_TAG, Mailbox, Message
from repro.machine.faults import FaultPlan, RankFailure
from repro.machine.metrics import BackendResult, PhaseCell, PhaseRollup, RankMetrics
from repro.machine.simmpi import Comm, describe_tag
from repro.machine.spec import MachineSpec

#: Events one :meth:`Simulator.run` may step before it gives up with a
#: ``RuntimeError`` (a guard against a protocol that never terminates).
MAX_EVENTS = 500_000_000


class DeadlockError(RuntimeError):
    """Live ranks are blocked on receives that can never complete.

    Distinct from :class:`repro.machine.faults.RankFailure`: a deadlock
    is a protocol bug among healthy ranks, a rank failure is injected
    fail-stop loss.  The message reports every blocked rank, what it is
    waiting on (source, tag — with reserved tags named) and what its
    mailbox still holds, so protocol bugs are diagnosable from the
    exception alone.
    """


class _RankState:
    """Book-keeping for one rank's coroutine."""

    __slots__ = (
        "rank",
        "gen",
        "clock",
        "mailbox",
        "blocked_on",
        "peeking",
        "phase",
        "metrics",
        "alive",
        "failed",
        "retval",
        "send_value",
        "fault_time",
        "fault_phase",
        "phases_set",
        "cell",
        "ver",
    )

    def __init__(self, rank: int, gen: Generator):
        self.rank = rank
        self.gen = gen
        self.clock = 0.0
        self.mailbox = Mailbox()
        # (src, tag) patterns this rank is parked on: one for a ``recv``
        # (consumes its match on wake), any number for a ``waitany``
        # (``peeking``: wakes on the earliest match, consumes nothing).
        self.blocked_on: tuple[tuple[int, int], ...] | None = None
        self.peeking = False
        self.phase = "default"
        self.metrics = RankMetrics(rank)
        # The metrics row's cell of the *current* phase, bound lazily
        # on first charge (so a phase with no charged time never
        # appears in the row) and unbound on every set_phase.
        self.cell: PhaseCell | None = None
        self.alive = True
        self.failed = False  # fail-stopped by the fault plan
        self.retval: Any = None
        self.send_value: Any = None  # value to feed into the next gen.send
        self.fault_time: float | None = None
        self.fault_phase: int | None = None
        self.phases_set = 0  # set_phase calls executed so far
        # Ready-queue version: a heap entry (time, rank, ver) is valid
        # only while ``ver`` still equals this; bumping it invalidates
        # the rank's queued entry without searching the heap.
        self.ver = 0


class Simulator:
    """Run a set of rank programs over a :class:`MachineSpec`.

    Programs are generator functions ``program(comm, *args) -> Generator``;
    their return value (via ``return``) is collected into
    :attr:`repro.machine.metrics.BackendResult.returns` indexed by
    rank.

    Parameters
    ----------
    fault_plan:
        Optional :class:`repro.machine.faults.FaultPlan`; only its
        scheduler-level triggers (virtual time / phase index) are
        enacted — driver-level ``step`` triggers are ignored here.
    initial_metrics:
        Optional per-rank :class:`repro.machine.metrics.RankMetrics`
        rows to continue accumulating into (one per spawned rank).  Each
        rank's clock starts at its row's ``final_clock``, so a split
        epoch continues exactly where the previous run's clocks ended
        and its counters are bit-identical to the unsplit run — the
        same additions happen in the same order on the same
        accumulators.
    """

    def __init__(
        self,
        machine: MachineSpec,
        tracer: EventLog | None = None,
        fault_plan: FaultPlan | None = None,
        initial_metrics: list[RankMetrics] | None = None,
        sanitizer: Sanitizer | None = None,
    ):
        self.machine = machine
        # Span tracing (repro.obs); off is ``None``, so the per-event hot
        # path is a single `is not None` test and the simulated timings
        # are bit-identical with tracing on or off.
        self._tracer = tracer
        # Runtime correctness checking (repro.analysis.sanitizer).  Like
        # the tracer it is purely observational: hooks never charge
        # virtual time or change matching, so sanitized runs are
        # bit-identical to plain runs.
        self._sanitizer = sanitizer
        self.fault_plan = fault_plan if fault_plan else None
        self.initial_metrics = (
            list(initial_metrics) if initial_metrics is not None else None
        )
        self._programs: list[tuple[Callable, tuple, dict]] = []
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Per-run state: a second :meth:`run` starts from a clean slate."""
        self._failed: dict[int, float] = {}  # rank -> virtual kill time
        self.dropped_messages = 0  # sends black-holed at dead ranks
        # Hook batching: the full Python ``on_send`` hook runs only for
        # the first message of each (tag, phase) key — every later send
        # with a seen key is a plain counter increment, and plain
        # receives are counted locally; both are folded back into the
        # sanitizer via ``add_batched_counts`` when the run ends.  This
        # is lossless for findings: every sanitizer send check keys on
        # the (tag, phase) pair, deduplicated.
        self._san_send_seen: set[tuple[int, str]] = set()
        self._san_sends = 0  # elided on_send calls
        self._san_recvs = 0  # elided on_recv calls
        # Ready queue of (wake_time, rank, ver) entries; see module docstring.
        self._heap: list[tuple[float, int, int]] = []
        #: Primitive steps executed by the last run (read-only).
        self.events = 0
        #: Ready-queue pushes made by the last run (read-only); with
        #: run-ahead working this stays well below :attr:`events`.
        self.requeues = 0

    # ------------------------------------------------------------------

    def spawn(self, program: Callable, *args, **kwargs) -> int:
        """Register one rank program; returns the rank it will run as."""
        if len(self._programs) >= self.machine.nodes:
            raise ValueError(
                f"machine has {self.machine.nodes} nodes; cannot spawn more ranks"
            )
        self._programs.append((program, args, kwargs))
        return len(self._programs) - 1

    def spawn_all(self, program: Callable, *args, **kwargs) -> None:
        """Register the same program on every node (SPMD style)."""
        for _ in range(self.machine.nodes):
            self.spawn(program, *args, **kwargs)

    # ------------------------------------------------------------------

    def run(self, raise_on_failure: bool = True) -> BackendResult:
        """Execute all rank programs to completion; returns the result,
        whose ``metrics`` rollup holds the spawned ranks' rows.

        With ``raise_on_failure=False`` a run in which ranks were
        fail-stopped still returns (failed ranks contribute ``None``
        returns and appear in ``failed_ranks``);
        survivors blocked forever still raise :class:`RankFailure`,
        because their returns would be silently missing otherwise.
        """
        n = len(self._programs)
        if n == 0:
            raise ValueError("no rank programs spawned")
        if self.initial_metrics is not None and len(self.initial_metrics) != n:
            raise ValueError(
                f"initial_metrics has {len(self.initial_metrics)} entries "
                f"for {n} ranks"
            )
        # Message seq numbers restart at 0 every run: they are pure
        # tiebreakers (relative order within a run is unchanged), and
        # resetting makes mailbox provenance — including sanitizer race
        # witnesses — deterministic regardless of interpreter history.
        event.reset_sequence()
        self._reset_run_state()
        if self._sanitizer is not None:
            self._sanitizer.begin_run(n)
        states = []
        for rank, (program, args, kwargs) in enumerate(self._programs):
            comm = Comm(rank, n, self.machine)
            if self._sanitizer is not None:
                comm._san = self._sanitizer
            state = _RankState(rank, program(comm, *args, **kwargs))
            if self.initial_metrics is not None:
                state.metrics = self.initial_metrics[rank]
                state.clock = state.metrics.final_clock
            if self.fault_plan is not None:
                state.fault_time = self.fault_plan.time_fault(rank)
                state.fault_phase = self.fault_plan.phase_fault(rank)
            states.append(state)
        self._states = states

        self._run_events(states)

        if self._sanitizer is not None:
            # Fold the batched (elided-hook) counters back in before any
            # exit path, so sanitizer totals are right even when the run
            # ends in RankFailure/DeadlockError below.
            self._sanitizer.add_batched_counts(
                sends=self._san_sends, recvs=self._san_recvs
            )
            self._san_sends = self._san_recvs = 0

        blocked = [s for s in states if s.alive]
        if self._failed and (blocked or raise_on_failure):
            raise RankFailure(
                failed=dict(self._failed),
                time=max(s.clock for s in states),
                blocked=[
                    (s.rank, src, tag)
                    for s in blocked
                    for src, tag in s.blocked_on
                ],
                completed=[
                    s.rank
                    for s in states
                    if not s.alive and not s.failed
                ],
                nranks=n,
            )
        if blocked:
            raise DeadlockError(self._deadlock_message(states, blocked))

        if self._sanitizer is not None:
            # Finalize checks (collective cross-check, mailbox leaks)
            # only make sense for runs that completed cleanly; a
            # fail-stopped run legitimately leaves both inconsistent.
            self._sanitizer.end_run(states, failed=bool(self._failed))

        for s in states:
            s.metrics.final_clock = s.clock
        metrics = PhaseRollup([s.metrics for s in states])
        return BackendResult(
            elapsed=metrics.elapsed,
            returns=[s.retval for s in states],
            metrics=metrics,
            failed_ranks=tuple(sorted(self._failed)),
        )

    # ------------------------------------------------------------------

    def _run_events(self, states: list[_RankState]) -> None:
        """The event loop: pop the minimum key, step that rank, run ahead."""
        limit = MAX_EVENTS
        heap = self._heap = [(s.clock, s.rank, s.ver) for s in states]
        heapify(heap)
        step = self._step
        events = 0
        requeues = len(heap)
        while True:
            while heap:
                key_time, rank, ver = heappop(heap)
                state = states[rank]
                if ver == state.ver:
                    break
            else:
                # No runnable or wakeable rank.  Blocked ranks whose
                # fault time is due die now (virtual time would pass
                # their fail point while the machine idles).
                if self._kill_overdue(states):
                    continue
                break
            # Run-ahead: keep stepping this rank while its key stays at
            # or below the heap top, without touching the heap.
            while True:
                if state.fault_time is not None and key_time >= state.fault_time:
                    self._kill(state, max(state.clock, state.fault_time))
                    break
                events += 1
                if events > limit:
                    raise RuntimeError(f"simulation exceeded {limit} events")
                step(state)
                if not state.alive:
                    break
                if state.blocked_on is None:
                    key_time = state.clock
                else:
                    wake = self._wake_time(state)
                    if wake is None:
                        break  # parked until _inject delivers a match
                    key_time = wake
                if heap:
                    top = heap[0]
                    if key_time > top[0] or (key_time == top[0] and rank > top[1]):
                        heappush(heap, (key_time, rank, state.ver))
                        requeues += 1
                        break
        self.events = events
        self.requeues += requeues

    @staticmethod
    def _wake_time(state: _RankState) -> float | None:
        """Key of a blocked rank: when the earliest message matching any
        of its patterns lets it resume, or None while nothing matches."""
        assert state.blocked_on is not None
        clock = state.clock
        wake = None
        for src, tag in state.blocked_on:
            msg = state.mailbox.peek_matching(src, tag, clock, allow_future=True)
            if msg is not None and (wake is None or msg.arrival_time < wake):
                wake = msg.arrival_time
        if wake is None:
            return None
        return max(clock, wake)

    # ------------------------------------------------------------------

    @staticmethod
    def _deadlock_message(states: list[_RankState], blocked) -> str:
        """Diagnostic text: who is blocked, on what, with what pending."""
        n = len(states)
        completed = sum(1 for s in states if not s.alive and not s.failed)
        lines = [
            f"deadlock: {len(blocked)} of {n} ranks blocked forever "
            f"({completed} completed normally)"
        ]
        for s in blocked:
            patterns = " | ".join(
                f"src={'ANY_SOURCE' if src == ANY_SOURCE else src}, "
                f"tag={describe_tag(tag)}"
                for src, tag in s.blocked_on
            )
            pending = [
                f"(src={m.src}, tag={describe_tag(m.tag)})"
                for m in s.mailbox.pending()
            ]
            lines.append(
                f"  rank {s.rank} blocked on "
                f"{'waitany' if s.peeking else 'recv'}({patterns}) "
                f"at t={s.clock:.6g}; "
                f"mailbox holds {len(pending)} unmatched: "
                f"[{', '.join(pending)}]"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------

    def _kill(self, state: _RankState, time: float) -> None:
        """Fail-stop one rank: close its program, drain its mailbox."""
        state.clock = time
        state.alive = False
        state.failed = True
        state.blocked_on = None
        state.peeking = False
        state.ver += 1  # drop any queued ready-queue entry
        state.gen.close()
        lost = state.mailbox.drain()
        self.dropped_messages += len(lost)
        self._failed[state.rank] = time
        if self._tracer is not None:
            self._tracer.mark(
                time, "rank_failure", rank=state.rank, lost_messages=len(lost)
            )

    def _kill_overdue(self, states: list[_RankState]) -> bool:
        """Kill blocked ranks whose virtual-time fault is due; True if any."""
        killed = False
        horizon = max((s.clock for s in states), default=0.0)
        for s in states:
            if s.alive and s.fault_time is not None:
                self._kill(s, max(horizon, s.fault_time))
                killed = True
        return killed

    # ------------------------------------------------------------------

    def _step(self, state: _RankState) -> None:
        """Advance one rank by one primitive operation."""
        if state.blocked_on is not None:
            if state.peeking:
                self._complete_waitany(state)
                return
            # Wakeable blocked receive: complete it now.
            ((src, tag),) = state.blocked_on
            if self._sanitizer is not None and src == ANY_SOURCE:
                # Messages may have accumulated while the rank slept;
                # re-check the wildcard race at wake time (findings are
                # deduplicated by message sequence set).
                self._sanitizer.on_wildcard_recv(
                    state.clock, state.rank, tag, state.mailbox
                )
            msg = state.mailbox.pop_matching(src, tag, state.clock, allow_future=True)
            assert msg is not None, "scheduler picked a non-wakeable blocked rank"
            self._complete_recv(state, msg)
            state.blocked_on = None
            return
        try:
            op = state.gen.send(state.send_value)
        except StopIteration as stop:
            state.alive = False
            state.retval = stop.value
            return
        state.send_value = None
        self._dispatch(state, op)

    # ------------------------------------------------------------------

    def _dispatch(self, state: _RankState, op: tuple) -> None:
        kind = op[0]
        if kind == "drain":
            _, src, tag = op
            self._charge_poll(state)
            msgs = state.mailbox.pop_all_matching(src, tag, state.clock)
            self._received(state, msgs)
            if self._sanitizer is not None:
                self._sanitizer.on_drain(
                    state.clock, state.rank, src, tag, msgs
                )
            state.send_value = msgs
        elif kind == "compute":
            _, dt, flops = op
            if dt < 0:
                raise ValueError(
                    f"negative time increment {dt} in phase {state.phase!r}"
                )
            t0 = state.clock
            state.clock += dt
            cell = self._acc(state)
            cell.compute += dt
            if flops:
                cell.flops += flops
            if self._tracer is not None:
                self._tracer.op(
                    state.rank, state.phase, "compute", t0, state.clock, flops
                )
        elif kind == "inject":
            _, dst, tag, payload, nbytes = op
            self._inject(state, dst, tag, payload, nbytes)
        elif kind == "recv":
            _, src, tag = op
            if self._sanitizer is not None and src == ANY_SOURCE:
                self._sanitizer.on_wildcard_recv(
                    state.clock, state.rank, tag, state.mailbox
                )
            msg = state.mailbox.pop_matching(src, tag, state.clock, allow_future=True)
            if msg is not None:
                self._complete_recv(state, msg)
            else:
                state.blocked_on = ((src, tag),)
        elif kind == "waitany":
            # Always parks: the event loop keys the rank on its earliest
            # match (now, if one already arrived) like any blocked recv.
            state.blocked_on = op[1]
            state.peeking = True
            if self._sanitizer is not None:
                self._sanitizer.on_waitany(state.clock, state.rank, op[1])
        elif kind == "iprobe":
            _, src, tag = op
            self._charge_poll(state)
            msg = state.mailbox.peek_matching(src, tag, state.clock, allow_future=False)
            state.send_value = msg is not None
        elif kind == "now":
            state.send_value = state.clock
        elif kind == "set_phase":
            if (
                state.fault_phase is not None
                and state.phases_set >= state.fault_phase
            ):
                self._kill(state, state.clock)
                return
            state.phases_set += 1
            old, state.phase = state.phase, op[1]
            state.cell = None  # re-bind the phase's cell lazily
            state.send_value = old
            if self._tracer is not None:
                self._tracer.phase(state.rank, state.clock, state.phase)
        else:  # pragma: no cover - API misuse guard
            raise ValueError(f"unknown primitive op {kind!r} from rank {state.rank}")

    def _inject(self, state: _RankState, dst: int, tag: int, payload, nbytes: int) -> None:
        net = self.machine.network
        if dst == state.rank:
            dt = net.overhead + nbytes * net.self_copy
            arrival = state.clock + dt
        else:
            dt = net.injection_time(nbytes)
            arrival = state.clock + dt + net.latency
        t0 = state.clock
        state.clock += dt
        self._acc(state).comm += dt
        state.metrics.messages_sent += 1
        state.metrics.bytes_sent += nbytes
        if self._tracer is not None:
            self._tracer.op(
                state.rank, state.phase, "comm", t0, state.clock,
                nbytes=nbytes,
            )
            self._tracer.send(
                t0, state.rank, dst, tag, nbytes, state.phase
            )
        target = self._states[dst]
        if self._sanitizer is not None:
            key = (tag, state.phase)
            if key in self._san_send_seen:
                # Every sanitizer send check keys on (tag, phase)
                # and is deduplicated, so a repeat is pure counting.
                self._san_sends += 1
            else:
                self._san_send_seen.add(key)
                self._sanitizer.on_send(
                    t0, state.rank, dst, tag, nbytes, state.phase,
                    dropped=target.failed,
                )
        if target.failed:
            # Fail-stop semantics: the network can tell nobody is
            # listening; the message is black-holed (sender still paid
            # the injection cost, as on a real machine).
            self.dropped_messages += 1
            return
        msg = Message(
            src=state.rank,
            dst=dst,
            tag=tag,
            payload=payload,
            nbytes=nbytes,
            send_time=state.clock,
            arrival_time=arrival,
        )
        target.mailbox.deposit(msg)
        waiting = target.blocked_on
        if waiting is not None and any(msg.matches(*p) for p in waiting):
            # The target's wake time may have dropped (or it was parked):
            # re-key it on its *earliest* matching message, which need
            # not be this one.
            wake = self._wake_time(target)
            assert wake is not None
            target.ver += 1
            heappush(self._heap, (wake, dst, target.ver))
            self.requeues += 1

    def _complete_recv(self, state: _RankState, msg: Message) -> None:
        t0 = state.clock
        wait = max(0.0, msg.arrival_time - state.clock)
        state.clock = max(state.clock, msg.arrival_time)
        self._acc(state).wait += wait
        if self._sanitizer is not None:
            self._san_recvs += 1
        state.send_value = msg
        if self._tracer is not None:
            self._tracer.op(
                state.rank, state.phase, "wait", t0, state.clock,
                nbytes=msg.nbytes,
            )
        self._received(state, (msg,))

    def _received(self, state: _RankState, msgs) -> None:
        """Count (and trace) messages consumed at the rank's clock."""
        state.metrics.messages_received += len(msgs)
        if self._tracer is not None:
            for m in msgs:
                self._tracer.recv(
                    state.clock, state.rank, m.src, m.tag, m.nbytes,
                    state.phase,
                )

    def _complete_waitany(self, state: _RankState) -> None:
        """Wake a rank parked in ``waitany``: the gap was idle time;
        report which patterns have a message arrived by now and consume
        nothing."""
        t0 = state.clock
        state.clock = now = self._wake_time(state)
        if now > t0:
            self._acc(state).wait += now - t0
            if self._tracer is not None:
                self._tracer.op(state.rank, state.phase, "wait", t0, now)
        state.send_value = tuple(
            i
            for i, (src, tag) in enumerate(state.blocked_on)
            if state.mailbox.peek_matching(src, tag, now) is not None
        )
        state.blocked_on = None
        state.peeking = False

    @staticmethod
    def _acc(state: _RankState) -> PhaseCell:
        """The metrics cell of the rank's current phase."""
        cell = state.cell
        if cell is None:
            cell = state.cell = state.metrics.cell(state.phase)
        return cell

    def _charge_poll(self, state: _RankState) -> None:
        dt = self.machine.network.poll_overhead
        t0 = state.clock
        state.clock += dt
        self._acc(state).comm += dt
        if self._tracer is not None:
            self._tracer.op(state.rank, state.phase, "comm", t0, state.clock)
