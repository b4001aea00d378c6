"""``--backend cluster``: rank programs on a pool of node daemons.

The third execution engine in ``BACKENDS``.  Rank programs — the very
same generators ``sim`` interprets against virtual time and ``mp``
runs as forked processes — execute inside worker processes hosted by
per-host ``repro node`` daemons; the head (this process) ships each
program over TCP as one pickle, routes inter-node messages, and
collects results.  A program is therefore picklable data: a
module-level generator function, or ``functools.partial`` of one over
the data it needs, resolved by import on the node.

Physics is byte-identical to ``sim`` and ``mp`` by construction: the
workers run the mp backend's primitive interpreter with the same
Mailbox, the same sender sequence numbers and the same canonical
``(src, seq)`` drain order, so every receive resolves to the same
message regardless of arrival jitter.  Only the *clock* differs (host
wall time, like mp), which is why results carry ``measured=True``.

What cluster adds over mp is ``elastic=True``: losing a node mid-run
raises the same typed :class:`RankFailure` the simulator's fault plans
produce, and the pool keeps serving chunks on the survivors — which is
exactly the contract ``repro.resilience`` needs to checkpoint-restore
and shrink-repartition the run to completion (see ``docs/cluster.md``).
"""

from __future__ import annotations

import itertools
import os
import pickle
from typing import Any, Sequence

from repro.backend.api import (
    BackendResult,
    BackendUnavailable,
    ExecutionBackend,
    RankProgram,
)
from repro.backend.mp import check_measured_run, mp_available
from repro.cluster.head import ClusterSupervisor
from repro.cluster.placement import Placement
from repro.cluster.protocol import blobs_sha

__all__ = ["ClusterBackend", "cluster_available"]

_run_counter = itertools.count()


def cluster_available() -> str | None:
    """``None`` when the cluster backend can run here, else the reason.

    Node daemons fork their rank workers, so the same host requirement
    as mp applies on every node; the head additionally needs working
    loopback TCP, which any host with sockets has.
    """
    return mp_available()


class ClusterBackend(ExecutionBackend):
    """Execute ranks across node daemons connected over TCP.

    Parameters
    ----------
    nnodes:
        Node-daemon pool size (default 2), spawned on localhost at
        first use — the two-node localhost topology the docs and CI
        smoke job use.  To bring the nodes yourself, build a
        ``ClusterSupervisor(..., spawn=False)`` and :meth:`attach` it.

    A run is supervised for at most
    :data:`repro.backend.mp.RUN_TIMEOUT` seconds, as on the mp backend;
    a node silent for :data:`repro.cluster.head.HB_TIMEOUT` is declared
    dead (driving elastic :class:`RankFailure`).

    Like mp, requesting the sanitizer or a fault plan raises
    ``ValueError`` — both need deterministic virtual time.  *Real*
    faults (kill a node daemon) need no plan at all.
    """

    name = "cluster"
    measured = True
    elastic = True

    def __init__(
        self,
        nnodes: int = 2,
    ) -> None:
        reason = cluster_available()
        if reason is not None:
            raise BackendUnavailable(
                f"backend 'cluster' unavailable: {reason}"
            )
        self.nnodes = int(nnodes)
        self._sup: ClusterSupervisor | None = None

    # ------------------------------------------------------------- pool

    @property
    def supervisor(self) -> ClusterSupervisor:
        """The node pool, started lazily on first use."""
        if self._sup is None:
            self._sup = ClusterSupervisor(self.nnodes)
            self._sup.start()
        return self._sup

    def attach(self, supervisor: ClusterSupervisor) -> None:
        """Adopt an externally managed node pool (operator flow).

        The supervisor is started if it is not already (blocking until
        its ``nnodes`` daemons have dialed in); the backend then owns
        it — :meth:`close` shuts it down.  Lets a caller bind the
        listening port first, point ``repro node --connect HOST:PORT``
        daemons at :attr:`ClusterSupervisor.addr`, and only then hand
        the pool to the engine (see ``docs/cluster.md``).
        """
        if self._sup is not None:
            raise RuntimeError(
                "cluster backend already has a node pool; close() it "
                "before attaching another"
            )
        supervisor.start()
        self._sup = supervisor

    def close(self) -> None:
        if self._sup is not None:
            self._sup.close()
            self._sup = None

    # -------------------------------------------------------------- run

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
            fault_hint=" (the cluster backend experiences real faults: "
            "kill a node daemon)",
        )
        # SPMD runs ship each distinct program object once; all are
        # pickled before the pool is touched.
        blob_index: dict[int, int] = {}
        blobs: list[bytes] = []
        program_of_rank: list[int] = []
        for prog in programs:
            idx = blob_index.get(id(prog))
            if idx is None:
                idx = len(blobs)
                blob_index[id(prog)] = idx
                blobs.append(_pickle_program(prog))
            program_of_rank.append(idx)

        sup = self.supervisor
        alive = sup.alive_ids()
        if not alive:
            raise BackendUnavailable(
                "backend 'cluster' unavailable: every node daemon is dead"
            )
        n = len(rows)
        return sup.run_chunk(
            runid=f"repro_cl_{os.getpid()}_{next(_run_counter)}",
            machine=machine,
            nranks=n,
            placement=Placement.contiguous(n, alive),
            program_blobs=blobs,
            program_of_rank=program_of_rank,
            config_sha=blobs_sha(blobs),
            metrics=rows,
            tracer=tracer if trace_enabled else None,
        )


def _pickle_program(prog: RankProgram) -> bytes:
    """One rank program as the pickle a node resolves by import."""
    try:
        return pickle.dumps(prog, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        fn = getattr(prog, "func", prog)  # a functools.partial names its function
        name = getattr(fn, "__qualname__", type(fn).__name__)
        raise TypeError(
            f"rank program {name!r} cannot be pickled for the cluster "
            f"({type(exc).__name__}: {exc}); pass a module-level generator "
            "function, or functools.partial of one over picklable data"
        ) from exc
