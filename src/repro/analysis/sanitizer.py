"""SimMPI sanitizer: runtime message-race / tag / collective checking.

An opt-in shadow layer for the simulated machine, in the spirit of
MUST-style dynamic MPI correctness tools: the scheduler and the
communicator notify a :class:`Sanitizer` of every send, receive,
wildcard match and collective entry, and the sanitizer reports
structured findings without perturbing the simulation in any way — no
virtual time is charged, no scheduling decision changes, so a sanitized
run's traces are bit-identical to an unsanitized run (asserted by
``tests/analysis/test_sanitizer.py``).

Checks (finding ``kind`` strings):

``message-race``
    A wildcard (``ANY_SOURCE``) receive was posted while the rank's
    mailbox held matchable messages from **two or more distinct
    sources**.  The simulator resolves the race deterministically
    (arrival order), but on a real asynchronous machine the match would
    depend on timing — this is a *nondeterminism witness*, reported
    with full provenance (sources, sequence numbers, tag name).
    ``Comm.drain_recv`` consumes its mailbox in canonical (src, seq)
    order and is therefore race-free by construction.
``tag-collision``
    The same user tag was sent from two different accounting phases —
    two subsystems sharing one channel.  With wildcard receives in
    play, a stray message from subsystem A can satisfy subsystem B's
    receive.
``reserved-tag``
    A point-to-point send or a ``waitany`` pattern used a tag in the
    reserved range ``MAX_USER_TAG <= tag < collective base``, which no
    communicator call ever sends: application code forged it.
``collective-mismatch``
    Ranks executed different collective sequences
    (different op, root, count — or, for element-wise collectives like
    reduce/allreduce, different payload size/shape/dtype
    signatures) — the classic source of collective deadlock or silent
    corruption on a real machine.  Size-varying collectives (gatherv-
    style gathers, root-only bcast payloads) are exempt from the
    payload check by construction.
``finalize-leak``
    A rank finished its program with unconsumed messages in its
    mailbox: somebody sent a message nobody ever received.

Findings accumulate across scheduler runs (the driver restarts the
scheduler per epoch); per-run state (collective sequences, mailboxes)
is reset by :meth:`Sanitizer.begin_run`.  Runs that end in injected
rank failure skip the finalize/collective checks — interrupted
protocols legitimately leave both inconsistent.

Every finding is mirrored to the :mod:`repro.obs` tracer (when one is
attached) as a ``sanitizer:<kind>`` mark, so findings land on the same
virtual-time axis as the span events that produced them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.machine.event import ANY_SOURCE
from repro.machine.simmpi import MAX_USER_TAG, _COLL_TAG_BASE, describe_tag

__all__ = [
    "Sanitizer",
    "SanitizerFinding",
    "SanitizerReport",
    "FINDING_KINDS",
    "payload_signature",
]

FINDING_KINDS = (
    "message-race",
    "tag-collision",
    "reserved-tag",
    "collective-mismatch",
    "finalize-leak",
)

#: Findings *stored* per kind, so a systematically racy program cannot
#: blow up memory; :meth:`SanitizerReport.counts` still reports every
#: finding seen.
MAX_FINDINGS_PER_KIND = 1000


def payload_signature(value: Any) -> tuple:
    """Canonical cross-rank signature of one collective contribution.

    Collapses a payload to the structural properties that must agree
    across ranks for an element-wise collective to be well-formed:

    * numpy arrays (anything with ``shape``/``dtype``) ->
      ``("ndarray", shape, dtype_str)``;
    * sequences -> ``("seq", length)`` — element-wise folds over lists
      need equal lengths;
    * ``bytes`` -> ``("bytes", length)``;
    * everything else -> ``("py", type_name)`` — a rank folding floats
      against a rank folding dicts is a bug even though Python's ``+``
      may not notice until much later.

    Values inside containers are deliberately *not* inspected: the
    signature is O(1) regardless of payload size, so the sanitizer's
    no-perturbation guarantee (bit-identical virtual time) holds even
    for multi-megabyte contributions.
    """
    if value is None:
        return ("none",)
    shape = getattr(value, "shape", None)
    dtype = getattr(value, "dtype", None)
    if shape is not None and dtype is not None:
        return ("ndarray", tuple(int(s) for s in shape), str(dtype))
    if isinstance(value, (bytes, bytearray)):
        return ("bytes", len(value))
    if isinstance(value, (list, tuple)):
        return ("seq", len(value))
    return ("py", type(value).__name__)


def _fmt_coll_entry(entry: tuple | None) -> str:
    """Human-readable ``(name, root, signature)`` sequence entry."""
    if entry is None:
        return "nothing (sequence ended)"
    name, root, sig = entry
    details = []
    if root >= 0:
        details.append(f"root={root}")
    if sig is not None:
        details.append(f"payload={sig}")
    return f"{name}({', '.join(details)})" if details else name


@dataclass(frozen=True)
class SanitizerFinding:
    """One structured sanitizer finding."""

    kind: str
    time: float
    rank: int
    tag: int | None
    message: str
    detail: dict = field(default_factory=dict)

    def format(self) -> str:
        tag_txt = "" if self.tag is None else f" tag={describe_tag(self.tag)}"
        return (
            f"[{self.kind}] t={self.time:.6g} rank={self.rank}{tag_txt}: "
            f"{self.message}"
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "time": self.time,
            "rank": self.rank,
            "tag": self.tag,
            "message": self.message,
            "detail": self.detail,
        }


@dataclass
class SanitizerReport:
    """Summary of one sanitized execution (possibly many epochs)."""

    findings: list[SanitizerFinding]
    runs: int
    messages_sent: int
    messages_received: int
    wildcard_recvs: int
    collectives: int
    #: Findings seen per kind, including those past the storage cap.
    seen: dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        return {k: self.seen[k] for k in FINDING_KINDS if k in self.seen}

    def format(self) -> str:
        lines = ["sanitizer: " + ("CLEAN" if self.ok else "FINDINGS")]
        lines.append(
            f"  {self.runs} scheduler run(s), "
            f"{self.messages_sent} sends, "
            f"{self.messages_received} receives, "
            f"{self.wildcard_recvs} wildcard receives, "
            f"{self.collectives} collective entries"
        )
        for kind, n in sorted(self.counts().items()):
            lines.append(f"  {kind}: {n}")
        for f in self.findings:
            lines.append("  " + f.format())
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "counts": self.counts(),
                "runs": self.runs,
                "messages_sent": self.messages_sent,
                "messages_received": self.messages_received,
                "wildcard_recvs": self.wildcard_recvs,
                "collectives": self.collectives,
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
            sort_keys=True,
        )


class Sanitizer:
    """Shadow-layer recorder; attach via ``Simulator(sanitizer=...)``.

    Purely observational: every hook only reads simulator state and
    appends to internal records, so enabling the sanitizer cannot
    change virtual timings (tested bit-exactly).

    Parameters
    ----------
    tracer:
        Optional :class:`repro.obs.tracer.EventLog`; findings are
        mirrored as ``sanitizer:<kind>`` marks.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.findings: list[SanitizerFinding] = []
        #: Findings seen per kind, stored or past the cap.
        self.seen: dict[str, int] = {}
        self.runs = 0
        #: Python hook invocations actually executed (the scheduler
        #: batches most of them away; see :meth:`add_batched_counts`).
        self.hook_calls = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.wildcard_recvs = 0
        self.collectives = 0
        # Cross-run state: tags are global constants, so provenance and
        # dedup persist across epochs.
        self._tag_phases: dict[int, set[str]] = {}
        self._collisions_reported: set[int] = set()
        self._reserved_reported: set[int] = set()
        # Per-run state (reset by begin_run).
        self._coll_seq: dict[int, list[tuple]] = {}
        self._race_seen: set[tuple] = set()
        self._nranks = 0

    # ------------------------------------------------------------------
    # lifecycle (called by the scheduler)

    def begin_run(self, nranks: int) -> None:
        """Reset per-run state at the start of one scheduler run."""
        self.runs += 1
        self._nranks = nranks
        self._coll_seq = {}
        self._race_seen = set()

    def end_run(self, states: Iterable, failed: bool) -> None:
        """Finalize checks at the end of one scheduler run.

        ``states`` are scheduler rank-state objects (``rank``,
        ``mailbox``, ``failed`` attributes).  ``failed`` runs skip the
        finalize-leak and collective-mismatch checks: an interrupted
        protocol legitimately leaves both inconsistent.
        """
        if failed:
            return
        self._check_collectives()
        for s in states:
            if s.failed:
                continue
            for msg in s.mailbox.pending():
                self._emit(
                    "finalize-leak",
                    msg.arrival_time,
                    s.rank,
                    msg.tag,
                    f"message from rank {msg.src} "
                    f"({describe_tag(msg.tag)}, {msg.nbytes} B) was "
                    "never received",
                    src=msg.src,
                    nbytes=msg.nbytes,
                    seq=msg.seq,
                )

    # ------------------------------------------------------------------
    # event hooks (called by the scheduler hot path)

    def on_send(
        self,
        time: float,
        src: int,
        dst: int,
        tag: int,
        nbytes: int,
        phase: str,
        dropped: bool,
    ) -> None:
        self.hook_calls += 1
        self.messages_sent += 1
        if tag >= _COLL_TAG_BASE:
            return
        if tag >= MAX_USER_TAG:
            self._check_reserved(time, src, tag, f"send to rank {dst}", dst=dst)
            return
        phases = self._tag_phases.setdefault(tag, set())
        phases.add(phase)
        if len(phases) > 1 and tag not in self._collisions_reported:
            self._collisions_reported.add(tag)
            self._emit(
                "tag-collision",
                time,
                src,
                tag,
                f"user tag {tag} is sent from multiple subsystems "
                f"(phases {sorted(phases)}); a wildcard receive in one "
                "can match the other's messages",
                phases=sorted(phases),
                dst=dst,
            )

    def _check_reserved(
        self, time: float, rank: int, tag: int, what: str, **extra
    ) -> None:
        """A tag in ``[MAX_USER_TAG, _COLL_TAG_BASE)``: application code
        forged it (reported once per tag)."""
        if tag not in self._reserved_reported:
            self._reserved_reported.add(tag)
            self._emit(
                "reserved-tag",
                time,
                rank,
                tag,
                f"{what} used reserved tag {tag}",
                **extra,
            )

    def on_waitany(self, time: float, rank: int, patterns: tuple) -> None:
        """A rank parks on ``patterns``.  Nothing is consumed, so there
        is no race to witness; only forged tags are policed."""
        self.hook_calls += 1
        for _src, tag in patterns:
            if MAX_USER_TAG <= tag < _COLL_TAG_BASE:
                self._check_reserved(time, rank, tag, "waitany pattern")

    def on_recv(self, time: float, rank: int, msg) -> None:
        self.hook_calls += 1
        self.messages_received += 1

    def add_batched_counts(self, sends: int = 0, recvs: int = 0) -> None:
        """Fold in the hook calls the scheduler elided.

        The scheduler runs the full :meth:`on_send` only for the first
        message of each ``(tag, phase)`` key — every sanitizer send
        check keys on that pair and deduplicates, so repeats carry no
        new information — and counts plain receives locally.  The
        elided call counts are flushed here at the end of each
        scheduler run so report totals equal the machine's.
        """
        self.messages_sent += sends
        self.messages_received += recvs

    def on_wildcard_recv(
        self, time: float, rank: int, tag: int, mailbox
    ) -> None:
        """An ``ANY_SOURCE`` receive is about to match against ``mailbox``.

        If two or more matchable messages from distinct sources are
        pending (arrived *or* in flight — on a real machine either
        could win), the match outcome is timing-dependent: record a
        nondeterminism witness.  Reserved/collective tags are exempt:
        the built-in collectives match by construction on order-
        insensitive state.
        """
        self.hook_calls += 1
        self.wildcard_recvs += 1
        if tag >= _COLL_TAG_BASE:
            return
        msgs = [m for m in mailbox.pending() if m.matches(ANY_SOURCE, tag)]
        sources = sorted({m.src for m in msgs})
        if len(sources) < 2:
            return
        key = (rank, tag, tuple(sorted(m.seq for m in msgs)))
        if key in self._race_seen:
            return
        self._race_seen.add(key)
        self._emit(
            "message-race",
            time,
            rank,
            tag,
            f"wildcard recv with {len(msgs)} matchable messages from "
            f"sources {sources}; match order is timing-dependent on a "
            "real machine (use drain_recv for canonical (src, seq) "
            "consumption)",
            sources=sources,
            seqs=sorted(m.seq for m in msgs),
            tag_name=describe_tag(tag),
        )

    def on_drain(
        self, time: float, rank: int, src: int, tag: int, msgs: list
    ) -> None:
        """A canonical-order drain consumed ``msgs`` — race-free by
        construction; only counted."""
        self.hook_calls += 1
        self.messages_received += len(msgs)

    # ------------------------------------------------------------------
    # comm-level hooks (called by simmpi)

    def register_group(self, *args: Any) -> None:
        """No-op, kept only because ``benchmarks/perf/layers.py`` wraps
        it by name."""

    def on_collective(
        self,
        rank: int,
        name: str,
        root: int | None,
        payload: Any = None,
        has_payload: bool = False,
    ) -> None:
        """Rank ``rank`` entered collective ``name``.

        ``has_payload=True`` marks collectives whose contribution must
        agree across ranks (reduce/allreduce element-wise folds);
        ``payload`` is then
        summarised by :func:`payload_signature` and compared as part of
        the per-rank sequence.  Size-varying collectives (gather of
        per-rank work, root-only bcast payloads) pass
        ``has_payload=False`` so legitimate variation is not flagged.
        """
        self.collectives += 1
        sig = payload_signature(payload) if has_payload else None
        self._coll_seq.setdefault(rank, []).append(
            (name, -1 if root is None else int(root), sig)
        )

    # ------------------------------------------------------------------

    def report(self) -> SanitizerReport:
        return SanitizerReport(
            findings=list(self.findings),
            runs=self.runs,
            messages_sent=self.messages_sent,
            messages_received=self.messages_received,
            wildcard_recvs=self.wildcard_recvs,
            collectives=self.collectives,
            seen=dict(self.seen),
        )

    # ------------------------------------------------------------------
    # internals

    def _emit(
        self,
        kind: str,
        time: float,
        rank: int,
        tag: int | None,
        message: str,
        **detail: Any,
    ) -> None:
        n = self.seen[kind] = self.seen.get(kind, 0) + 1
        if n > MAX_FINDINGS_PER_KIND:
            return
        f = SanitizerFinding(
            kind=kind,
            time=time,
            rank=rank,
            tag=tag,
            message=message,
            detail=detail,
        )
        self.findings.append(f)
        if self.tracer is not None:
            self.tracer.mark(time, f"sanitizer:{kind}", rank=rank, **detail)

    def _check_collectives(self) -> None:
        """Compare per-rank collective sequences."""
        seqs = self._coll_seq
        participants = sorted(seqs)
        if not participants:
            return
        ref = participants[0]
        ref_seq = seqs[ref]
        missing = [r for r in range(self._nranks) if r not in seqs]
        if missing:
            self._emit(
                "collective-mismatch",
                0.0,
                missing[0],
                None,
                f"rank(s) {missing} executed no collectives while rank "
                f"{ref} executed {len(ref_seq)}",
                missing=missing,
            )
        for r in participants[1:]:
            got = seqs[r]
            if got == ref_seq:
                continue
            div = next(
                (
                    i
                    for i, (a, b) in enumerate(zip(ref_seq, got))
                    if a != b
                ),
                min(len(ref_seq), len(got)),
            )
            a = ref_seq[div] if div < len(ref_seq) else None
            b = got[div] if div < len(got) else None
            self._emit(
                "collective-mismatch",
                0.0,
                r,
                None,
                f"collective sequence diverges from rank {ref} at "
                f"entry {div}: rank {ref} executed {_fmt_coll_entry(a)}, "
                f"rank {r} executed {_fmt_coll_entry(b)} "
                f"(lengths {len(ref_seq)} vs {len(got)})",
                index=div,
                ref_rank=ref,
                ref_op=list(a) if a else None,
                got_op=list(b) if b else None,
            )
