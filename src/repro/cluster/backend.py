"""``--backend cluster``: rank programs on a pool of node daemons.

The third execution engine in the registry.  Rank programs — the very
same generators ``sim`` interprets against virtual time and ``mp``
runs as forked processes — execute inside worker processes hosted by
per-host ``repro node`` daemons; the head (this process) ships the
programs over TCP, routes inter-node messages, and collects results.

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
from typing import Any, Sequence

from repro.backend.api import (
    BackendResult,
    BackendUnavailable,
    ExecutionBackend,
    RankProgram,
)
from repro.backend.mp import check_measured_run, mp_available
from repro.cluster.head import HB_INTERVAL, HB_TIMEOUT, ClusterSupervisor
from repro.cluster.placement import Placement
from repro.cluster.shipping import blobs_sha, ship_program

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
    shm_threshold / timeout / sleep_cap:
        Same worker-level knobs as the mp backend, applied on every
        node.
    hb_interval / hb_timeout:
        Heartbeat cadence and the silence span after which a node of
        the spawned pool is declared dead (driving elastic
        :class:`RankFailure`).

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
        *,
        shm_threshold: int = 32 * 1024,
        timeout: float | None = 120.0,
        sleep_cap: float = 0.005,
        hb_interval: float = HB_INTERVAL,
        hb_timeout: float = HB_TIMEOUT,
    ) -> None:
        reason = cluster_available()
        if reason is not None:
            raise BackendUnavailable(
                f"backend 'cluster' unavailable: {reason}"
            )
        self.nnodes = int(nnodes)
        self.shm_threshold = int(shm_threshold)
        self.timeout = timeout
        self.sleep_cap = float(sleep_cap)
        self.hb_interval = float(hb_interval)
        self.hb_timeout = float(hb_timeout)
        self._sup: ClusterSupervisor | None = None

    # ------------------------------------------------------------- pool

    @property
    def supervisor(self) -> ClusterSupervisor:
        """The node pool, started lazily on first use."""
        if self._sup is None:
            self._sup = ClusterSupervisor(
                self.nnodes,
                hb_interval=self.hb_interval,
                hb_timeout=self.hb_timeout,
            )
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
        initial_clocks: Sequence[float] | None = None,
        initial_metrics: Sequence[Any] | None = None,
    ) -> BackendResult:
        clocks, rows, trace_enabled = check_measured_run(
            machine, programs, tracer, sanitizer, fault_plan,
            initial_clocks, initial_metrics,
            fault_hint=" (the cluster backend experiences real faults: "
            "kill a node daemon)",
        )
        sup = self.supervisor
        alive = sup.alive_ids()
        if not alive:
            raise BackendUnavailable(
                "backend 'cluster' unavailable: every node daemon is dead"
            )
        n = len(rows)
        placement = Placement.contiguous(n, alive)

        # SPMD runs ship each distinct program object once.
        blob_index: dict[int, int] = {}
        blobs: list[bytes] = []
        program_of_rank: list[int] = []
        for prog in programs:
            idx = blob_index.get(id(prog))
            if idx is None:
                idx = len(blobs)
                blob_index[id(prog)] = idx
                blobs.append(ship_program(prog))
            program_of_rank.append(idx)
        config_sha = blobs_sha(blobs)

        return sup.run_chunk(
            runid=f"repro_cl_{os.getpid()}_{next(_run_counter)}",
            machine=machine,
            nranks=n,
            placement=placement,
            program_blobs=blobs,
            program_of_rank=program_of_rank,
            config_sha=config_sha,
            options={
                "shm_threshold": self.shm_threshold,
                "sleep_cap": self.sleep_cap,
            },
            clocks=clocks,
            metrics=rows,
            tracer=tracer if trace_enabled else None,
            timeout=self.timeout,
        )
