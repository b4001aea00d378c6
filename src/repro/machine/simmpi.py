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

Primitive operations are yielded to the scheduler as tuples; user code
never sees them.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Callable, Generator, Iterable

from repro.machine.event import ANY_SOURCE, ANY_TAG

#: Exclusive upper bound on user-visible tags.  Everything at or above
#: it is reserved: sub-communicator translation offsets user tags by
#: multiples of :data:`SubComm._TAG_STRIDE` (= ``MAX_USER_TAG``), and
#: collectives live above *all* possible group offsets at
#: ``_COLL_TAG_BASE`` so a group-translated user tag can never collide
#: with a collective round.  ``Comm.send``/``recv``/``iprobe`` enforce
#: the bound with an explicit guard.
MAX_USER_TAG = 10_000_000

#: Sentinel distinguishing "collective without a payload check" from a
#: legitimately-``None`` payload in sanitizer notifications.
_NO_PAYLOAD = object()

# Reserved tag space for collectives; sits above every possible
# SubComm offset (< 998 * MAX_USER_TAG) plus user tag.
_COLL_TAG_BASE = 100_000_000_000
_TAG_BARRIER = _COLL_TAG_BASE + 1
_TAG_BCAST = _COLL_TAG_BASE + 2
_TAG_GATHER = _COLL_TAG_BASE + 3
_TAG_REDUCE = _COLL_TAG_BASE + 4
#: Reserved tag for the failure-detection heartbeat protocol
#: (:meth:`Comm.detect_failures`).  Lives in the collective tag space so
#: no group-translated user tag can ever match a heartbeat.
_TAG_HEARTBEAT = _COLL_TAG_BASE + 6

#: Payload carried by one heartbeat message ("I am alive"), and its wire
#: size.  Tiny and fixed so detection cost is independent of app state.
_HEARTBEAT_NBYTES = 16

_COLL_TAG_NAMES = {
    _TAG_BCAST: "collective:bcast",
    _TAG_GATHER: "collective:gather",
    _TAG_REDUCE: "collective:reduce",
    _TAG_HEARTBEAT: "collective:heartbeat",
}


def describe_tag(tag: int) -> str:
    """Human-readable name for a message tag (for diagnostics).

    Distinguishes user tags, group-offset user tags, barrier rounds and
    the reserved collective/heartbeat tags so deadlock and failure
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
    if tag >= SubComm._TAG_STRIDE:
        group = tag // SubComm._TAG_STRIDE
        user = tag % SubComm._TAG_STRIDE
        return f"group[{group}]:user:{user}"
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
    #: How the sanitizer knows this communicator, and this rank in
    #: global numbering (a :class:`SubComm` overrides both).
    _san_id: Any = "world"

    def __init__(self, rank: int, size: int, machine):
        self.rank = self._san_rank = rank
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
        """Notify the sanitizer (if any) of a collective entry, under
        this communicator's id with global rank numbering (so cross-rank
        comparison is stable).

        ``payload`` is forwarded for element-wise collectives
        (reduce/allreduce) so the sanitizer can compare O(1)
        size/shape/dtype signatures across ranks; collectives with
        legitimately rank-varying contributions (gather, bcast) omit
        it.  The sentinel keeps ``payload=None`` distinguishable from
        "no payload check"."""
        if self._san is not None:
            has = payload is not _NO_PAYLOAD
            self._san.on_collective(
                self._san_rank,
                self._san_id,
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
        above is reserved for sub-communicator offsets and collective
        rounds (``tag >= _COLL_TAG_BASE``) and must never be usable from
        application code, or concurrent collectives could match user
        messages.
        """
        if allow_any and tag == ANY_TAG:
            return
        if not (0 <= tag < MAX_USER_TAG):
            raise ValueError(
                f"tag {tag} outside the user range [0, {MAX_USER_TAG}); "
                f"tags >= {MAX_USER_TAG} are reserved for group offsets "
                f"and collectives (collective base {_COLL_TAG_BASE})"
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
        return (yield from self._iprobe(src, tag))

    def _iprobe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        found = yield ("iprobe", src, tag)
        return found

    def _tryrecv(self, src: int, tag: int) -> Generator:
        """Non-blocking matched receive primitive (no tag translation:
        overridden by :class:`SubComm`)."""
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
        msgs = yield from self._drain(src, tag)
        return [(m.payload, Status(m.src, m.tag, m.nbytes)) for m in msgs]

    def _drain(self, src: int, tag: int) -> Generator:
        """Unchecked drain primitive (overridden by :class:`SubComm`)."""
        msgs = yield ("drain", src, tag)
        return msgs

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
        return (yield from self._waitany(patterns))

    def _waitany(self, patterns: tuple) -> Generator:
        """Unchecked waitany primitive (overridden by :class:`SubComm`)."""
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
        p = self.size
        if p == 1:
            return payload
        vrank = (self.rank - root) % p
        top = 1
        while top < p:
            top <<= 1
        received = payload
        mask = 1
        while mask < top:
            if vrank & mask:
                src = (vrank - mask + root) % p
                received, _ = yield from self._recv(src, _TAG_BCAST)
                break
            mask <<= 1
        else:
            mask = top  # vrank == 0: forward at every level
        n = self._size_of(received, nbytes)
        mask >>= 1
        while mask > 0:
            if vrank + mask < p:
                dst = (vrank + mask + root) % p
                yield from self._send(dst, _TAG_BCAST, received, n)
            mask >>= 1
        return received

    def gather(self, payload: Any, root: int = 0, nbytes: int | None = None) -> Generator:
        """Linear gather to root; root returns the list ordered by rank."""
        self._san_collective("gather", root)
        if self.size == 1:
            return [payload]
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = payload
            for _ in range(self.size - 1):
                data, status = yield from self._recv(ANY_SOURCE, _TAG_GATHER)
                out[status.source] = data
            return out
        yield from self._send(root, _TAG_GATHER, payload, nbytes)
        return None

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
        survivors then agree on the dead set with an allreduce (set
        union) over a sub-communicator containing only the locally-live
        ranks — every survivor returns the identical sorted tuple of
        dead ranks, mirroring a ULFM ``MPI_Comm_agree`` shrink.

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
        # 4. Agreement over the locally-live group.  All survivors
        #    computed the same suspect set (the detector has no false
        #    positives and dead ranks' heartbeats reach nobody), so the
        #    group membership — and hence the SubComm tag offset — is
        #    identical on every survivor, and the allreduce is safe.
        live = [r for r in range(self.size) if r == self.rank or r not in suspects]
        if len(live) > 1:
            group = self.split(live)
            agreed = yield from group.allreduce(
                frozenset(suspects), op=lambda a, b: a | b, nbytes=64
            )
        else:
            agreed = frozenset(suspects)
        return tuple(sorted(agreed))

    # ------------------------------------------------------------------
    # sub-communicators (the paper's per-grid processor groups)
    # ------------------------------------------------------------------

    def split(self, members: list[int]) -> "SubComm":
        """Communicator over a subset of global ranks.

        OVERFLOW assigns a processor *group* to each component grid
        (paper Fig. 2); a :class:`SubComm` gives that group its own rank
        numbering and collectives while routing over the global
        communicator (tags are offset so concurrent groups do not cross
        wires).  The calling rank must be a member.
        """
        return SubComm(self, members)

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


class SubComm(Comm):
    """Group communicator: local ranks 0..len(members)-1 map onto a
    sorted subset of global ranks.

    Point-to-point and collective calls use group-local ranks; tags are
    offset by a group-specific stride so that simultaneous collectives
    in different groups never match each other's messages.  A rank may
    hold several SubComms (e.g. its grid group and a row group).
    """

    _TAG_STRIDE = 10_000_000

    def __init__(self, parent: Comm, members: list[int]):
        members = sorted(set(int(m) for m in members))
        if not members:
            raise ValueError("empty group")
        bad = [m for m in members if not (0 <= m < parent.size)]
        if bad:
            raise ValueError(f"group members out of range: {bad}")
        if parent.rank not in members:
            raise ValueError(
                f"rank {parent.rank} is not a member of the group"
            )
        if isinstance(parent, SubComm):
            raise ValueError("nested splits are not supported; split the "
                             "global communicator instead")
        self.parent = parent
        self.members = members
        # Group id from the member set: deterministic and identical on
        # every member, so all of them offset tags the same way.
        gid = hash(tuple(members)) % 997
        self._tag_offset = (gid + 1) * self._TAG_STRIDE
        super().__init__(members.index(parent.rank), len(members),
                         parent.machine)
        # Sanitizer shadow layer follows the parent communicator; the
        # group claims its tag offset so reserved-tag policing knows
        # which offsets are legitimate.
        self._san = parent._san
        self._san_rank = parent.rank
        self._san_id = ("group",) + tuple(members)
        if self._san is not None:
            self._san.register_group(
                tuple(self.members), self._tag_offset, parent.rank
            )

    # -- rank/tag translation -------------------------------------------

    def _global(self, local_rank: int) -> int:
        if not (0 <= local_rank < self.size):
            raise ValueError(
                f"group rank {local_rank} out of range (size {self.size})"
            )
        return self.members[local_rank]

    def _tag(self, tag: int) -> int:
        if tag == ANY_TAG:
            return ANY_TAG
        return tag + self._tag_offset

    # -- overridden primitives (everything else composes on these) -----
    # The *public* send/recv/iprobe with their user-tag guard are
    # inherited from Comm; only the unchecked primitives translate.

    def _send(self, dst: int, tag: int, payload: Any = None, nbytes: int | None = None) -> Generator:
        yield from self.parent._send(
            self._global(dst), self._tag(tag), payload, nbytes
        )
        return None

    def _gsrc(self, src: int) -> int:
        return ANY_SOURCE if src == ANY_SOURCE else self._global(src)

    def _local(self, msg):
        """``msg`` re-addressed in group-local rank and tag numbering."""
        src = self.members.index(msg.src) if msg.src in self.members else -1
        tag = msg.tag - self._tag_offset if msg.tag != ANY_TAG else msg.tag
        return replace(msg, src=src, tag=tag)

    def _recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        msg = self._local((yield ("recv", self._gsrc(src), self._tag(tag))))
        return msg.payload, Status(msg.src, msg.tag, msg.nbytes)

    def _iprobe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        found = yield ("iprobe", self._gsrc(src), self._tag(tag))
        return found

    def _tryrecv(self, src: int, tag: int) -> Generator:
        got = yield ("tryrecv", self._gsrc(src), self._tag(tag))
        return None if got is None else self._local(got)

    def _drain(self, src: int, tag: int) -> Generator:
        msgs = yield ("drain", self._gsrc(src), self._tag(tag))
        return [self._local(m) for m in msgs]

    def _waitany(self, patterns: tuple) -> Generator:
        ready = yield (
            "waitany",
            tuple((self._gsrc(s), self._tag(t)) for s, t in patterns),
        )
        return ready
