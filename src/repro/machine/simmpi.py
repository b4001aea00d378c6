"""SimMPI: an MPI-flavoured message-passing API over the event simulator.

Rank programs are generator functions taking a :class:`Comm`.  Every
communication or compute call is a *sub-generator* and must be invoked
with ``yield from``::

    def program(comm):
        yield from comm.compute(flops=2.0e6)
        if comm.rank == 0:
            yield from comm.send(1, tag=0, payload={"hello": 1}, nbytes=64)
        else:
            payload, status = yield from comm.recv(0, tag=0)
        total = yield from comm.allreduce(comm.rank)

The methods are the MPI surface the paper's codes rely on, each with
one spelling: eager ``send``, blocking ``recv``, ``iprobe``,
``drain_recv``/``waitany`` for service loops, and the ``barrier``,
``bcast``, ``gather`` and ``allreduce`` collectives.  Under the
eager-send model a nonblocking send is just ``send`` and a nonblocking
receive is ``iprobe`` then ``recv``, so neither has a second API.
Collectives are built from point-to-point primitives with the classic
O(log P) algorithms so their simulated cost scales realistically.

There is one communicator, over every rank.  The paper's per-grid
processor groups are a mapping over global ranks
(:class:`repro.partition.Partition`), not group communicators.

Primitive operations are yielded to the scheduler as tuples; user code
never sees them.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Generator, Iterable, Sequence

from repro.machine.event import ANY_SOURCE, ANY_TAG

#: Exclusive upper bound on user-visible tags.  Everything at or above
#: it is reserved, so application code can never match a collective
#: round.  ``Comm.send``/``recv``/``iprobe``/``drain_recv``/``waitany``
#: enforce the bound with an explicit guard.
MAX_USER_TAG = 10_000_000

#: Sentinel distinguishing "collective without a payload check" from a
#: legitimately-``None`` payload in sanitizer notifications.
_NO_PAYLOAD = object()

# Reserved tag space for collectives and heartbeats.  No tag in
# [MAX_USER_TAG, _COLL_TAG_BASE) is ever sent.
_COLL_TAG_BASE = 100_000_000_000
_TAG_BARRIER = _COLL_TAG_BASE + 1
_TAG_BCAST = _COLL_TAG_BASE + 2
_TAG_GATHER = _COLL_TAG_BASE + 3
_TAG_REDUCE = _COLL_TAG_BASE + 4
#: Reserved tag for the failure-detection heartbeat protocol
#: (:meth:`Comm.detect_failures`).
_TAG_HEARTBEAT = _COLL_TAG_BASE + 6
#: Reserved tag for the survivors' agreement on the dead set (the
#: gather and the broadcast of :meth:`Comm.detect_failures`).
_TAG_AGREE = _COLL_TAG_BASE + 7

#: Payload carried by one heartbeat message ("I am alive"), and its wire
#: size.  Tiny and fixed so detection cost is independent of app state.
_HEARTBEAT_NBYTES = 16

_COLL_TAG_NAMES = {
    _TAG_BCAST: "collective:bcast",
    _TAG_GATHER: "collective:gather",
    _TAG_REDUCE: "collective:reduce",
    _TAG_HEARTBEAT: "collective:heartbeat",
    _TAG_AGREE: "collective:agree",
}


def describe_tag(tag: int) -> str:
    """Human-readable name for a message tag (for diagnostics).

    Distinguishes user tags, barrier rounds and the reserved
    collective/heartbeat/agreement tags so deadlock and failure
    reports name the protocol a rank is stuck in rather than printing a
    bare 12-digit integer.
    """
    if tag == ANY_TAG:
        return "ANY"
    if tag in _COLL_TAG_NAMES:
        return _COLL_TAG_NAMES[tag]
    if tag >= _COLL_TAG_BASE:
        # Barrier rounds use _TAG_BARRIER + k for round k; round 0 is
        # the only one outside the named-collective table above.
        k = tag - _TAG_BARRIER
        if 0 <= k < 64:
            return f"collective:barrier[round {k}]"
        return f"reserved:{tag}"
    if 0 <= tag < MAX_USER_TAG:
        return f"user:{tag}"
    return f"tag:{tag}"


@dataclass
class Status:
    """Receive status: who sent the matched message, with which tag."""

    source: int
    tag: int
    nbytes: int


class Comm:
    """Communicator bound to one rank of the simulated machine."""

    #: Optional :class:`repro.analysis.sanitizer.Sanitizer` shadow
    #: layer, attached by the scheduler when sanitizing.  Purely
    #: observational — notifications never charge virtual time.
    _san = None

    def __init__(self, rank: int, size: int, machine):
        self.rank = rank
        self.size = size
        self.machine = machine

    # ------------------------------------------------------------------
    # sanitizer shadow layer
    # ------------------------------------------------------------------

    def _san_collective(
        self,
        name: str,
        root: int | None = None,
        payload: Any = _NO_PAYLOAD,
    ) -> None:
        """Notify the sanitizer (if any) of a collective entry.

        ``payload`` is forwarded for element-wise collectives
        (reduce/allreduce) so the sanitizer can compare O(1)
        size/shape/dtype signatures across ranks; collectives with
        legitimately rank-varying contributions (gather, bcast) omit
        it.  The sentinel keeps ``payload=None`` distinguishable from
        "no payload check"."""
        if self._san is not None:
            has = payload is not _NO_PAYLOAD
            self._san.on_collective(
                self.rank,
                name,
                root,
                payload if has else None,
                has,
            )

    # ------------------------------------------------------------------
    # time and work
    # ------------------------------------------------------------------

    def compute(
        self,
        flops: float = 0.0,
        seconds: float = 0.0,
        points_per_node: float | None = None,
    ) -> Generator:
        """Charge compute work: ``flops`` at the node's effective rate
        and/or raw ``seconds``.  ``points_per_node`` enables the cache
        model of :class:`repro.machine.spec.NodeSpec`."""
        dt = seconds
        if flops:
            dt += self.machine.compute_time(flops, points_per_node)
        if dt or flops:
            yield ("compute", dt, flops)
        return None

    def elapse(self, seconds: float) -> Generator:
        """Advance this rank's clock without attributing flops."""
        yield ("compute", seconds, 0.0)
        return None

    def now(self) -> Generator:
        """Current virtual time on this rank."""
        t = yield ("now",)
        return t

    def set_phase(self, phase: str) -> Generator:
        """Switch the accounting phase; returns the previous phase."""
        old = yield ("set_phase", phase)
        return old

    # ------------------------------------------------------------------
    # point to point
    # ------------------------------------------------------------------

    @staticmethod
    def _check_user_tag(tag: int, allow_any: bool = False) -> None:
        """Guard the reserved tag space.

        User tags must satisfy ``0 <= tag < MAX_USER_TAG``; everything
        above is reserved for collective rounds (``tag >=
        _COLL_TAG_BASE``) and must never be usable from application
        code, or concurrent collectives could match user messages.
        """
        if allow_any and tag == ANY_TAG:
            return
        if not (0 <= tag < MAX_USER_TAG):
            raise ValueError(
                f"tag {tag} outside the user range [0, {MAX_USER_TAG}); "
                f"tags >= {MAX_USER_TAG} are reserved for collectives "
                f"(collective base {_COLL_TAG_BASE})"
            )

    def send(self, dst: int, tag: int, payload: Any = None, nbytes: int | None = None) -> Generator:
        """Buffered (eager) send: returns once the message is injected."""
        self._check_user_tag(tag)
        yield from self._send(dst, tag, payload, nbytes)
        return None

    def _send(self, dst: int, tag: int, payload: Any = None, nbytes: int | None = None) -> Generator:
        """Unchecked send primitive (collectives use reserved tags)."""
        if not (0 <= dst < self.size):
            raise ValueError(f"send to invalid rank {dst} (size {self.size})")
        yield ("inject", dst, tag, payload, self._size_of(payload, nbytes))
        return None

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Blocking receive; returns ``(payload, Status)``."""
        self._check_user_tag(tag, allow_any=True)
        return (yield from self._recv(src, tag))

    def _recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Unchecked receive primitive (collectives use reserved tags)."""
        msg = yield ("recv", src, tag)
        return msg.payload, Status(msg.src, msg.tag, msg.nbytes)

    def iprobe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Has a matching message arrived?  Charges a polling overhead."""
        self._check_user_tag(tag, allow_any=True)
        found = yield ("iprobe", src, tag)
        return found

    def _tryrecv(self, src: int, tag: int) -> Generator:
        """Unchecked non-blocking matched receive primitive (heartbeats
        use a reserved tag)."""
        got = yield ("tryrecv", src, tag)
        return got

    def drain_recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Drain *every* arrived matching message in one poll.

        Returns ``[(payload, Status), ...]`` sorted by ``(source, seq)``
        — a canonical order independent of arrival interleaving, which
        makes wildcard service loops deterministic where repeated
        single-message ``ANY_SOURCE`` tryrecvs would consume messages
        in timing-dependent arrival order (the message-race pattern the
        sanitizer flags).  Charges one polling overhead regardless of
        how many messages are drained.
        """
        self._check_user_tag(tag, allow_any=True)
        msgs = yield ("drain", src, tag)
        return [(m.payload, Status(m.src, m.tag, m.nbytes)) for m in msgs]

    def waitany(self, patterns: Iterable[tuple[int, int]]) -> Generator:
        """Block until a message matching *any* ``(src, tag)`` pattern
        has arrived; consume nothing.

        Returns the indices of the patterns that are ready (ascending,
        never empty), so a service loop sleeps until there is work and
        then drains exactly the ready channels with :meth:`drain_recv`.
        The idle gap is ``wait`` time; no polling overhead is charged.
        """
        patterns = tuple(patterns)
        if not patterns:
            raise ValueError("waitany needs at least one (src, tag) pattern")
        for _src, tag in patterns:
            self._check_user_tag(tag, allow_any=True)
        ready = yield ("waitany", patterns)
        return ready

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------

    def barrier(self) -> Generator:
        """Dissemination barrier: ceil(log2 P) rounds."""
        self._san_collective("barrier")
        p = self.size
        if p == 1:
            return None
        rounds = max(1, math.ceil(math.log2(p)))
        for k in range(rounds):
            dist = 1 << k
            yield from self._send((self.rank + dist) % p, _TAG_BARRIER + k, None, 8)
            yield from self._recv((self.rank - dist) % p, _TAG_BARRIER + k)
        return None

    def bcast(self, payload: Any = None, root: int = 0, nbytes: int | None = None) -> Generator:
        """Binomial-tree broadcast; every rank returns the root's payload.

        Virtual rank 0 is the root; a rank receives from the sender one
        step up its lowest-set-bit edge, then forwards down every lower
        bit — the classic O(log P)-round binomial tree.
        """
        self._san_collective("bcast", root)
        return (yield from self._bcast_over(
            range(self.size), payload, root, _TAG_BCAST, nbytes
        ))

    def _bcast_over(self, members: Sequence[int], payload: Any, root: int, tag: int, nbytes: int | None) -> Generator:
        """Binomial tree over the global ranks ``members`` (``root`` is
        one of them), every message on ``tag``."""
        p = len(members)
        if p == 1:
            return payload
        vroot = members.index(root)
        vrank = (members.index(self.rank) - vroot) % p
        top = 1
        while top < p:
            top <<= 1
        received = payload
        mask = 1
        while mask < top:
            if vrank & mask:
                src = members[(vrank - mask + vroot) % p]
                received, _ = yield from self._recv(src, tag)
                break
            mask <<= 1
        else:
            mask = top  # vrank == 0: forward at every level
        n = self._size_of(received, nbytes)
        mask >>= 1
        while mask > 0:
            if vrank + mask < p:
                dst = members[(vrank + mask + vroot) % p]
                yield from self._send(dst, tag, received, n)
            mask >>= 1
        return received

    def gather(self, payload: Any, root: int = 0, nbytes: int | None = None) -> Generator:
        """Linear gather to root; root returns the list ordered by rank."""
        self._san_collective("gather", root)
        return (yield from self._gather_over(
            range(self.size), payload, root, _TAG_GATHER, nbytes
        ))

    def _gather_over(self, members: Sequence[int], payload: Any, root: int, tag: int, nbytes: int | None) -> Generator:
        """Linear gather over the global ranks ``members`` to ``root``,
        every message on ``tag``; root returns the payloads in
        ``members`` order, the others None."""
        if self.rank != root:
            yield from self._send(root, tag, payload, nbytes)
            return None
        out: list[Any] = [None] * len(members)
        out[members.index(root)] = payload
        for _ in range(len(members) - 1):
            data, status = yield from self._recv(ANY_SOURCE, tag)
            out[members.index(status.source)] = data
        return out

    def allgather(self, payload: Any, nbytes: int | None = None) -> Generator:
        """Gather to rank 0 then broadcast (cost ~ gather + bcast)."""
        self._san_collective("allgather")
        gathered = yield from self.gather(payload, 0, nbytes)
        n = None if nbytes is None else nbytes * self.size
        return (yield from self.bcast(gathered, 0, n))

    def reduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = lambda a, b: a + b,
        root: int = 0,
        nbytes: int | None = None,
    ) -> Generator:
        """Gather-based reduce; root returns the reduction, others None."""
        self._san_collective("reduce", root, payload=value)
        gathered = yield from self.gather(value, root, nbytes)
        if self.rank != root:
            return None
        acc = gathered[0]
        for v in gathered[1:]:
            acc = op(acc, v)
        return acc

    def allreduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = lambda a, b: a + b,
        nbytes: int | None = None,
    ) -> Generator:
        self._san_collective("allreduce", payload=value)
        reduced = yield from self.reduce(value, op, 0, nbytes)
        return (yield from self.bcast(reduced, 0, nbytes))

    # ------------------------------------------------------------------
    # failure detection (heartbeat / timeout protocol)
    # ------------------------------------------------------------------

    def heartbeat_timeout(self) -> float:
        """Deterministic detection timeout in virtual seconds.

        Generous by construction: covers every peer's heartbeat
        injection plus several network latencies plus the probe
        overheads, so on a *healthy* machine no live rank is ever
        falsely suspected — the protocol has no false positives, only
        bounded detection delay.
        """
        net = self.machine.network
        return (
            (self.size + 2) * net.injection_time(_HEARTBEAT_NBYTES)
            + 4.0 * net.latency
            + 16 * net.poll_overhead
        )

    def detect_failures(self, timeout: float | None = None) -> Generator:
        """Simulated heartbeat/timeout failure detector.

        Each surviving rank broadcasts an "I am alive" heartbeat on the
        reserved :data:`_TAG_HEARTBEAT` channel, waits out a
        deterministic ``timeout``, then probes for each peer's
        heartbeat.  Peers whose heartbeat never arrived are *suspected*
        dead (their messages were black-holed by the scheduler).  The
        survivors then agree on the dead set: a linear gather of the
        suspect sets to the lowest live rank and a binomial broadcast of
        their union over the live ranks, both on the reserved
        :data:`_TAG_AGREE` channel — every survivor returns the
        identical sorted tuple of dead ranks, mirroring a ULFM
        ``MPI_Comm_agree`` shrink.

        Must only be called when at least the calling rank is alive;
        safe to call with no failures (returns an empty tuple).
        """
        self._san_collective("detect_failures")
        if timeout is None:
            timeout = self.heartbeat_timeout()
        # 1. Broadcast heartbeats (sends to dead ranks are black-holed
        #    by the scheduler at sender cost only — no deadlock risk).
        for peer in range(self.size):
            if peer != self.rank:
                yield from self._send(
                    peer, _TAG_HEARTBEAT, ("alive", self.rank),
                    _HEARTBEAT_NBYTES,
                )
        # 2. Wait out the detection window.
        yield from self.elapse(timeout)
        # 3. Probe: whose heartbeat arrived?
        suspects: list[int] = []
        for peer in range(self.size):
            if peer == self.rank:
                continue
            got = yield from self._tryrecv(peer, _TAG_HEARTBEAT)
            if got is None:
                suspects.append(peer)
        # 4. Agreement over the locally-live ranks.  All survivors
        #    computed the same suspect set (the detector has no false
        #    positives and dead ranks' heartbeats reach nobody), so
        #    ``live`` is identical on every survivor.
        live = [r for r in range(self.size) if r == self.rank or r not in suspects]
        sets = yield from self._gather_over(
            live, frozenset(suspects), live[0], _TAG_AGREE, 64
        )
        union = None if sets is None else frozenset().union(*sets)
        agreed = yield from self._bcast_over(live, union, live[0], _TAG_AGREE, 64)
        return tuple(sorted(agreed))

    # ------------------------------------------------------------------

    @staticmethod
    def _size_of(payload: Any, nbytes: int | None) -> int:
        """Message size in bytes: explicit, or estimated from the payload."""
        if nbytes is not None:
            return int(nbytes)
        if payload is None:
            return 8
        if hasattr(payload, "nbytes"):  # numpy arrays
            return int(payload.nbytes) + 16
        if isinstance(payload, (bytes, bytearray)):
            return len(payload) + 16
        if isinstance(payload, (int, float, bool)):
            return 16
        if isinstance(payload, (list, tuple)):
            return 16 + sum(Comm._size_of(p, None) for p in payload)
        if isinstance(payload, dict):
            return 16 + sum(
                Comm._size_of(k, None) + Comm._size_of(v, None)
                for k, v in payload.items()
            )
        # Arbitrary object (e.g. a dataclass): measure the actual
        # serialised size instead of guessing a constant.  Hashable
        # payloads go through a bounded LRU memo so hot paths that
        # resend the same small object don't re-pickle it every time;
        # unhashable ones are measured directly.  Unpicklable payloads
        # keep the old conservative constant.
        try:
            hash(payload)
        except TypeError:
            return _pickled_size(payload)
        return _pickled_size_memo(payload)


def _pickled_size(payload: Any) -> int:
    """16-byte envelope + pickled body, or the legacy 64-byte guess if
    the payload cannot be pickled (e.g. holds a generator or socket)."""
    try:
        return 16 + len(pickle.dumps(payload, protocol=4))
    except Exception:
        return 64


@lru_cache(maxsize=1024)
def _pickled_size_memo(payload: Any) -> int:
    return _pickled_size(payload)

