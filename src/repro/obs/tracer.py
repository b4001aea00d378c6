"""Span-event tracing for the simulated machine.

Events are recorded by :class:`repro.machine.scheduler.Simulator` as it
dispatches rank primitives; every record call sites behind an
``if tracer is not None`` guard, and the default is ``None``, so the
disabled path costs one pointer comparison and allocates nothing —
benchmark virtual times are bit-identical with tracing on or off
(asserted by the golden-trace tests).

Five event kinds are kept, all in *virtual seconds*, each with a kind
code (``KIND_*``, also the record kind byte of the segment store):

``op`` spans (:data:`KIND_OP`)
    ``(rank, phase, kind, t0, t1, flops, nbytes)`` — one per scheduler
    primitive.  ``kind`` is ``compute`` (charged arithmetic), ``comm``
    (message injection / polling; the sender-side cost) or ``wait``
    (blocked receive; ``t1 - t0`` is the idle time, ``nbytes`` the size
    of the message that ended it).
``phase`` marks (:data:`KIND_PHASE`)
    ``(rank, t, name)`` — emitted at every ``Comm.set_phase``.
``mark`` instants (:data:`KIND_MARK`)
    ``(t, name, args)`` — driver-level annotations (epoch boundaries,
    repartitions).
``send`` events (:data:`KIND_SEND`)
    ``(t, src, dst, tag, nbytes, phase)`` — one per message injection
    (including messages black-holed at failed ranks: the sender still
    paid).  These feed :class:`repro.obs.perf.CommMatrix`.
``recv`` events (:data:`KIND_RECV`)
    ``(t, rank, src, tag, nbytes, phase)`` — one per message actually
    consumed (blocking recv, successful tryrecv, or drain).  These let
    :mod:`repro.obs.perf.critical_path` blame wait spans on the sender
    whose message ended them.

There is one recording path.  Every recorder is an :class:`EventLog`:
each of the five calls builds its kind's tuple and hands it to one
``_record``, which appends ``(kind, fields)`` to ``events`` in recording
order.  :class:`SpanTracer` reads that log per kind; the segment store's
``StoreTracer`` drains it to disk; a measured-engine worker ships its
log and the parent extends its own recorder with it
(:meth:`EventLog.extend`).

A multi-epoch run (the driver restarts the scheduler after each dynamic
rebalance) calls :meth:`EventLog.advance` between epochs so recorded
times stay on one continuous virtual axis.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "EventLog", "SpanTracer", "event_ranks", "shifted",
    "KIND_OP", "KIND_PHASE", "KIND_MARK", "KIND_SEND", "KIND_RECV",
]

# Event kind codes (the segment store writes them as record kind bytes).
KIND_OP = 1
KIND_PHASE = 2
KIND_MARK = 3
KIND_SEND = 4
KIND_RECV = 5

#: The fields of each kind that name a rank, the event's own rank first.
_RANK_FIELDS = {
    KIND_OP: slice(0, 1),     # rank
    KIND_PHASE: slice(0, 1),  # rank
    KIND_MARK: slice(0, 0),   # rank-less
    KIND_SEND: slice(1, 3),   # src, dst
    KIND_RECV: slice(1, 3),   # rank, src
}


def event_ranks(kind: int, fields: tuple) -> tuple:
    """The ranks an event names, its own rank first (none for a mark)."""
    return fields[_RANK_FIELDS[kind]]


def shifted(kind: int, fields: tuple, off: float) -> tuple:
    """``fields`` with ``off`` added to every time field."""
    if kind == KIND_OP:
        rank, phase, k, t0, t1, flops, nbytes = fields
        return (rank, phase, k, t0 + off, t1 + off, flops, nbytes)
    if kind == KIND_PHASE:
        return (fields[0], fields[1] + off, fields[2])
    return (fields[0] + off, *fields[1:])


class EventLog:
    """One picklable list of ``(kind, fields)`` in recording order.

    The root of every recorder; tracing is off when the tracer is
    ``None``.  ``fields`` is the kind's tuple layout with the trace
    offset already added to its time fields.  A measured-engine worker
    records here and the parent passes the shipped log to its
    recorder's :meth:`extend`, so a step-detecting consumer meets each
    rank's phase marks before the ops they open.
    """

    #: Time base of recorded events.  ``"virtual"`` (the default) means
    #: modeled seconds from the discrete-event scheduler; execution
    #: backends that record measured host time (``repro.backend.mp``)
    #: set this to ``"wall"`` so downstream analytics and baselines can
    #: refuse to compare traces across clock domains.
    clock: str = "virtual"

    def __init__(self) -> None:
        self.events: list[tuple[int, tuple]] = []
        self._offset = 0.0

    # -- recording ------------------------------------------------------

    def op(self, rank: int, phase: str, kind: str, t0: float, t1: float,
           flops: float = 0.0, nbytes: int = 0) -> None:
        """Record one primitive span on ``rank``."""
        self._record(KIND_OP, (rank, phase, kind, t0, t1, flops, nbytes))

    def phase(self, rank: int, t: float, name: str) -> None:
        """Record a phase switch on ``rank`` at virtual time ``t``."""
        self._record(KIND_PHASE, (rank, t, name))

    def mark(self, t: float, name: str, **args: Any) -> None:
        """Record an instantaneous driver-level annotation."""
        self._record(KIND_MARK, (t, name, args))

    def send(
        self, t: float, src: int, dst: int, tag: int, nbytes: int, phase: str
    ) -> None:
        """Record one message injection (``src`` -> ``dst``)."""
        self._record(KIND_SEND, (t, src, dst, tag, nbytes, phase))

    def recv(
        self, t: float, rank: int, src: int, tag: int, nbytes: int, phase: str
    ) -> None:
        """Record one message consumption on ``rank`` (sender ``src``)."""
        self._record(KIND_RECV, (t, rank, src, tag, nbytes, phase))

    def _record(self, kind: int, fields: tuple) -> None:
        self.events.append((kind, shifted(kind, fields, self._offset)))

    def extend(self, log: "EventLog") -> None:
        """Record ``log``'s events here, in its order, at this offset."""
        for kind, fields in log.events:
            self._record(kind, fields)

    # -- epoch plumbing -------------------------------------------------

    @property
    def offset(self) -> float:
        """Current virtual-time offset added to recorded times."""
        return self._offset

    def advance(self, dt: float) -> None:
        """Shift the virtual-time origin forward by ``dt`` (one epoch)."""
        if dt < 0:
            raise ValueError(f"cannot advance the trace origin by {dt}")
        self._offset += dt


class SpanTracer(EventLog):
    """Accumulates every event in memory, with per-kind views.

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

    Each view is derived from ``events`` and caught up incrementally
    when read.
    """

    def __init__(self) -> None:
        super().__init__()
        self._by_kind: dict[int, list[tuple]] = {
            k: [] for k in (KIND_OP, KIND_PHASE, KIND_MARK, KIND_SEND, KIND_RECV)
        }
        self._seen = 0

    def _view(self, kind: int) -> list[tuple]:
        events = self.events
        if self._seen < len(events):
            by_kind = self._by_kind
            for k, fields in events[self._seen:]:
                by_kind[k].append(fields)
            self._seen = len(events)
        return self._by_kind[kind]

    ops = property(lambda self: self._view(KIND_OP))
    phase_marks = property(lambda self: self._view(KIND_PHASE))
    marks = property(lambda self: self._view(KIND_MARK))
    sends = property(lambda self: self._view(KIND_SEND))
    recvs = property(lambda self: self._view(KIND_RECV))

    # -- derived views --------------------------------------------------

    @property
    def nranks(self) -> int:
        """Number of ranks seen (max rank id + 1), across all five
        event streams — a rank black-holed before its first op span
        still shows up as a send source or destination."""
        return 1 + max(
            (r for k, f in self.events for r in event_ranks(k, f)), default=-1
        )

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
