"""Span-event tracing for the simulated machine.

Events are recorded by :class:`repro.machine.scheduler.Simulator` as it
dispatches rank primitives; every record call sites behind an
``if tracer is not None`` guard, and the default is ``None``, so the
disabled path costs one pointer comparison and allocates nothing —
benchmark virtual times are bit-identical with tracing on or off
(asserted by the golden-trace tests).

Five event kinds are kept, all in *virtual seconds*:

``op`` spans
    ``(rank, phase, kind, t0, t1, flops, nbytes)`` — one per scheduler
    primitive.  ``kind`` is ``compute`` (charged arithmetic), ``comm``
    (message injection / polling; the sender-side cost) or ``wait``
    (blocked receive; ``t1 - t0`` is the idle time, ``nbytes`` the size
    of the message that ended it).
``phase`` marks
    ``(rank, t, name)`` — emitted at every ``Comm.set_phase``.
``mark`` instants
    ``(t, name, args)`` — driver-level annotations (epoch boundaries,
    repartitions).
``send`` events
    ``(t, src, dst, tag, nbytes, phase)`` — one per message injection
    (including messages black-holed at failed ranks: the sender still
    paid).  These feed :class:`repro.obs.perf.CommMatrix`.
``recv`` events
    ``(t, rank, src, tag, nbytes, phase)`` — one per message actually
    consumed (blocking recv, successful tryrecv, or drain).  These let
    :mod:`repro.obs.perf.critical_path` blame wait spans on the sender
    whose message ended them.

A multi-epoch run (the driver restarts the scheduler after each dynamic
rebalance) calls :meth:`Tracer.advance` between epochs so recorded
times stay on one continuous virtual axis.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Tracer", "NullTracer", "SpanTracer", "EventLog", "OpEvent"]

#: Alias documenting the tuple layout of one ``op`` span.
OpEvent = tuple  # (rank, phase, kind, t0, t1, flops, nbytes)


class Tracer:
    """Recording interface; the base class ignores everything.

    ``enabled`` is the contract with the scheduler: a simulator given a
    tracer with ``enabled=False`` drops it at construction time, so the
    per-event hot path never even sees the object.
    """

    enabled: bool = False

    #: Time base of recorded events.  ``"virtual"`` (the default) means
    #: modeled seconds from the discrete-event scheduler; execution
    #: backends that record measured host time (``repro.backend.mp``)
    #: set this to ``"wall"`` so downstream analytics and baselines can
    #: refuse to compare traces across clock domains.
    clock: str = "virtual"

    # -- recording (called from the scheduler hot path) ----------------

    def op(
        self,
        rank: int,
        phase: str,
        kind: str,
        t0: float,
        t1: float,
        flops: float = 0.0,
        nbytes: int = 0,
    ) -> None:
        """Record one primitive span on ``rank``."""

    def phase(self, rank: int, t: float, name: str) -> None:
        """Record a phase switch on ``rank`` at virtual time ``t``."""

    def mark(self, t: float, name: str, **args: Any) -> None:
        """Record an instantaneous driver-level annotation."""

    def send(
        self, t: float, src: int, dst: int, tag: int, nbytes: int, phase: str
    ) -> None:
        """Record one message injection (``src`` -> ``dst``)."""

    def recv(
        self, t: float, rank: int, src: int, tag: int, nbytes: int, phase: str
    ) -> None:
        """Record one message consumption on ``rank`` (sender ``src``)."""

    # -- epoch plumbing -------------------------------------------------

    @property
    def offset(self) -> float:
        """Current virtual-time offset added to recorded times."""
        return 0.0

    def advance(self, dt: float) -> None:
        """Shift the virtual-time origin forward by ``dt`` (one epoch)."""


class NullTracer(Tracer):
    """Explicitly-disabled tracer; identical to passing ``tracer=None``."""


def _recording(name: str) -> Callable[..., None]:
    def record(self: "EventLog", *fields: Any, **args: Any) -> None:
        self.events.append((name, fields, args))

    return record


class EventLog(Tracer):
    """One picklable list of ``(call, fields, args)`` in recording
    order, for replay into another tracer.  A measured-engine worker
    records here and the parent replays the log, so a step-detecting
    consumer meets each rank's phase marks before the ops they open."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[tuple] = []

    op = _recording("op")
    phase = _recording("phase")
    mark = _recording("mark")
    send = _recording("send")
    recv = _recording("recv")

    def replay(self, tracer: Tracer) -> None:
        """Make the recorded calls on ``tracer``, in recording order."""
        for name, fields, args in self.events:
            getattr(tracer, name)(*fields, **args)


class SpanTracer(Tracer):
    """Accumulates every event in memory.

    Attributes
    ----------
    ops:
        List of ``(rank, phase, kind, t0, t1, flops, nbytes)`` tuples in
        deterministic scheduler dispatch order.
    phase_marks:
        List of ``(rank, t, name)`` phase-switch marks.
    marks:
        List of ``(t, name, args)`` driver annotations.
    sends:
        List of ``(t, src, dst, tag, nbytes, phase)`` message injections.
    recvs:
        List of ``(t, rank, src, tag, nbytes, phase)`` consumptions.
    """

    enabled = True

    def __init__(self) -> None:
        self.ops: list[tuple] = []
        self.phase_marks: list[tuple] = []
        self.marks: list[tuple] = []
        self.sends: list[tuple] = []
        self.recvs: list[tuple] = []
        self._offset = 0.0

    # -- recording ------------------------------------------------------

    def op(
        self,
        rank: int,
        phase: str,
        kind: str,
        t0: float,
        t1: float,
        flops: float = 0.0,
        nbytes: int = 0,
    ) -> None:
        off = self._offset
        self.ops.append((rank, phase, kind, t0 + off, t1 + off, flops, nbytes))

    def phase(self, rank: int, t: float, name: str) -> None:
        self.phase_marks.append((rank, t + self._offset, name))

    def mark(self, t: float, name: str, **args: Any) -> None:
        self.marks.append((t + self._offset, name, dict(args)))

    def send(
        self, t: float, src: int, dst: int, tag: int, nbytes: int, phase: str
    ) -> None:
        self.sends.append((t + self._offset, src, dst, tag, nbytes, phase))

    def recv(
        self, t: float, rank: int, src: int, tag: int, nbytes: int, phase: str
    ) -> None:
        self.recvs.append((t + self._offset, rank, src, tag, nbytes, phase))

    # -- epoch plumbing -------------------------------------------------

    @property
    def offset(self) -> float:
        return self._offset

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"cannot advance the trace origin by {dt}")
        self._offset += dt

    # -- derived views --------------------------------------------------

    @property
    def nranks(self) -> int:
        """Number of ranks seen (max rank id + 1), across all five
        event streams — a rank black-holed before its first op span
        still shows up as a send source or destination."""
        top = -1
        for e in self.ops:
            if e[0] > top:
                top = e[0]
        for e in self.phase_marks:
            if e[0] > top:
                top = e[0]
        for e in self.sends:  # (t, src, dst, ...)
            if e[1] > top:
                top = e[1]
            if e[2] > top:
                top = e[2]
        for e in self.recvs:  # (t, rank, src, ...)
            if e[1] > top:
                top = e[1]
            if e[2] > top:
                top = e[2]
        return top + 1

    @property
    def t_end(self) -> float:
        """Latest span end time (0 for an empty trace)."""
        return max((e[4] for e in self.ops), default=0.0)

    def rank_ops(self, rank: int) -> list[tuple]:
        """This rank's op spans, in time order."""
        return [e for e in self.ops if e[0] == rank]

    def phase_spans(self) -> dict[int, list[tuple[float, float, str]]]:
        """Contiguous per-rank phase bands derived from the op spans.

        Returns ``{rank: [(t0, t1, phase), ...]}`` where consecutive ops
        in the same phase are coalesced into one band.  Gaps between
        bands are times the rank had already finished (or had no
        recorded activity).
        """
        out: dict[int, list[tuple[float, float, str]]] = {}
        for rank, phase, _kind, t0, t1, _f, _b in self.ops:
            spans = out.setdefault(rank, [])
            if spans and spans[-1][2] == phase and t0 <= spans[-1][1] + 1e-15:
                prev = spans[-1]
                spans[-1] = (prev[0], max(prev[1], t1), phase)
            else:
                spans.append((t0, t1, phase))
        return out

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpanTracer({len(self.ops)} ops, {self.nranks} ranks, "
            f"t_end={self.t_end:.6g}s)"
        )
