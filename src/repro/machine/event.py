"""Messages and per-rank mailboxes for the event-driven network model.

A :class:`Message` records who sent it, when it arrives (virtual seconds),
its payload and size.  Each rank owns a :class:`Mailbox` holding messages
that have been *injected* but possibly not yet *arrived*; matching honours
MPI semantics — per (source, tag) channel, messages are matched in arrival
order, and wildcards (:data:`ANY_SOURCE`, :data:`ANY_TAG`) match the
earliest-arriving candidate.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

ANY_SOURCE = -1
ANY_TAG = -1

_seq = itertools.count()


def reset_sequence() -> None:
    """Restart the global message sequence counter.

    The scheduler calls this at the start of every run so ``seq``
    values — tiebreakers in mailbox ordering and provenance in
    sanitizer race witnesses — are a deterministic function of the run,
    not of how many messages earlier runs in the same interpreter
    created.  Within a run the counter is still strictly increasing in
    injection order, so resetting cannot change any matching decision.
    """
    global _seq
    _seq = itertools.count()


@dataclass
class Message:
    """One in-flight or delivered point-to-point message."""

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int
    send_time: float     # sender clock when injection completed
    arrival_time: float  # virtual time the message becomes receivable
    seq: int = field(default_factory=lambda: next(_seq))

    def matches(self, src: int, tag: int) -> bool:
        """Does this message satisfy a receive posted for (src, tag)?"""
        return (src == ANY_SOURCE or src == self.src) and (
            tag == ANY_TAG or tag == self.tag
        )


_arrival_order = attrgetter("arrival_time", "seq")  # matching order
_drain_order = attrgetter("src", "seq")  # canonical drain order


class Mailbox:
    """Unmatched messages destined for one rank.

    Messages live here from injection until a matching receive consumes
    them.  ``pop_matching`` only returns messages whose ``arrival_time`` is
    at or before the probing rank's clock *unless* ``allow_future`` is set
    (used by blocking receives, which are willing to wait for arrival).
    """

    def __init__(self) -> None:
        self._messages: list[Message] = []

    def __len__(self) -> int:
        return len(self._messages)

    def deposit(self, msg: Message) -> None:
        # Keep arrival order so wildcard receives are deterministic.
        bisect.insort(self._messages, msg, key=_arrival_order)

    def peek_matching(
        self, src: int, tag: int, now: float, allow_future: bool = False
    ) -> Message | None:
        """Earliest matching message, or None.

        With ``allow_future`` False (probe semantics) only messages that
        have already arrived by ``now`` are visible.
        """
        for msg in self._messages:
            if not allow_future and msg.arrival_time > now:
                return None  # arrival-sorted: nothing further has arrived
            if msg.matches(src, tag):
                return msg
        return None

    def pop_matching(
        self, src: int, tag: int, now: float, allow_future: bool = False
    ) -> Message | None:
        msg = self.peek_matching(src, tag, now, allow_future)
        if msg is not None:
            self._messages.remove(msg)
        return msg

    def pop_all_matching(
        self, src: int, tag: int, now: float
    ) -> list[Message]:
        """Remove and return *every* matching message arrived by ``now``,
        sorted by ``(src, seq)``.

        This is the canonical-order drain primitive: whatever order the
        messages arrived in (the timing-dependent part on a real
        machine), the caller consumes them in a stable order, so a
        wildcard drain cannot act as a message-race amplifier.
        """
        got: list[Message] = []
        kept: list[Message] = []
        for m in self._messages:
            hit = m.arrival_time <= now and m.matches(src, tag)
            (got if hit else kept).append(m)
        if got:
            self._messages = kept
            got.sort(key=_drain_order)
        return got

    def pending(self) -> list[Message]:
        """Snapshot of unmatched messages (for deadlock diagnostics)."""
        return list(self._messages)

    def drain(self) -> list[Message]:
        """Remove and return every unmatched message.

        Used when a rank fail-stops: its mailbox contents are lost with
        it (the returned list feeds fault diagnostics only).
        """
        out, self._messages = self._messages, []
        return out
