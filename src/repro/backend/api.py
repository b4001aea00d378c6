"""Backend-neutral execution API for rank programs.

The repo's rank programs — OVERFLOW-D1 steps, the 2-D ADI solver, the
DCF connectivity exchange — are generator functions ``program(comm)``
that yield primitive operation tuples and drive all communication
through the :class:`repro.machine.simmpi.Comm` surface.  Nothing in a
program says *how* those primitives execute: the conservative
discrete-event scheduler interprets them against modeled virtual time,
but any engine that honours the same primitive contract can run the
very same generators.

This module pins that contract down:

* the rank-facing communicator surface is
  :class:`repro.machine.simmpi.Comm` itself: every engine hands its
  ranks a ``Comm`` and differs only in how the primitives it yields are
  interpreted;
* :class:`BackendResult` — what an execution produces, on every engine
  the same: ``elapsed``, ``returns``, ``metrics`` (the run's
  :class:`repro.machine.metrics.PhaseRollup`), ``failed_ranks``, plus
  provenance (``backend``, ``measured``).  It is defined beside the
  accounting in :mod:`repro.machine.metrics`, because the simulator's
  scheduler returns it directly.
* :class:`ExecutionBackend` — the engine interface: take a machine and a
  list of rank programs, run them to completion, return a result.
* :func:`get_backend` — the engine named by one of the fixed
  :data:`BACKENDS` (``--backend sim``, ``--backend mp``, ``--backend
  cluster``).

Two implementations ship in this package: :mod:`repro.backend.sim`
(the default; wraps the existing scheduler, bit-identical to calling it
directly) and :mod:`repro.backend.mp` (real ``multiprocessing`` ranks
with pickle-over-pipe transport and shared-memory bulk payloads); the
third, :mod:`repro.cluster`, runs mp's workers under node daemons.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Generator, Sequence

from repro.machine.metrics import BackendResult

__all__ = [
    "RankProgram",
    "BackendResult",
    "BackendUnavailable",
    "ExecutionBackend",
    "BACKENDS",
    "get_backend",
]

#: A rank program: called once per rank with that rank's communicator,
#: returns the generator the engine drives to completion.  The
#: generator's ``return`` value becomes the rank's entry in
#: :attr:`BackendResult.returns`.
RankProgram = Callable[..., Generator]


class BackendUnavailable(RuntimeError):
    """The requested backend cannot run on this host/configuration."""


class ExecutionBackend(abc.ABC):
    """An engine that runs rank programs over a machine description.

    Subclasses declare three capability attributes:

    ``name``
        Engine name, one of :data:`BACKENDS`.
    ``measured``
        Whether results are host wall-clock measurements rather than
        modeled virtual time.
    ``elastic``
        ``True`` when the engine can lose execution resources mid-run
        (a cluster node dying) and *keep running subsequent chunks on
        the survivors*.  Drivers use this to arm checkpoint/recovery
        machinery even without an explicit fault plan — see
        ``OverflowD1``'s implicit step-0 snapshot.
    """

    name: str = "?"
    measured: bool = False
    elastic: bool = False

    @abc.abstractmethod
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
        """Run one program per rank to completion.

        ``programs[i]`` runs as rank ``i``; ``len(programs)`` must not
        exceed ``machine.nodes``.  Keyword arguments mirror
        :class:`repro.machine.scheduler.Simulator`; ``initial_metrics``
        are the :class:`repro.machine.metrics.RankMetrics` rows to
        continue accumulating into, and each rank's clock resumes at
        its row's ``final_clock`` (0.0 for a fresh row).  Backends that
        do not support a feature (e.g. fault injection outside the
        simulator) raise :class:`ValueError` when it is requested
        rather than silently ignoring it.
        """

    def run_spmd(
        self,
        machine: Any,
        program: RankProgram,
        nranks: int | None = None,
        **kwargs: Any,
    ) -> BackendResult:
        """Run the same program on every rank (SPMD convenience)."""
        n = machine.nodes if nranks is None else int(nranks)
        return self.run(machine, [program] * n, **kwargs)

    def close(self) -> None:
        """Release engine-held resources (daemon pools, sockets).

        No-op for in-process engines; the cluster backend overrides it
        to shut its node pool down.  Idempotent, and safe to call on a
        backend that never ran anything.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


#: The engines :func:`get_backend` builds, by name.
BACKENDS = ("sim", "mp", "cluster")


def get_backend(name: str = "sim", **options: Any) -> ExecutionBackend:
    """Instantiate the engine named ``name`` (one of :data:`BACKENDS`).

    Raises :class:`ValueError` for unknown names.  An engine that cannot
    run on this host (``mp`` or ``cluster`` without the ``fork`` start
    method) raises :class:`BackendUnavailable` from its constructor.
    The mp and cluster modules are imported only when named, so a host
    that cannot run them still imports this package and uses ``sim``.
    """
    if name == "sim":
        from repro.backend.sim import SimBackend as engine
    elif name == "mp":
        from repro.backend.mp import MpBackend as engine
    elif name == "cluster":
        from repro.cluster.backend import ClusterBackend as engine
    else:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown backend {name!r}; known backends: {known}")
    return engine(**options)
