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
* a registry (:func:`register_backend` / :func:`get_backend` /
  :func:`available_backends`) so drivers and the CLI select engines by
  name (``--backend sim``, ``--backend mp``).

Two implementations ship in this package: :mod:`repro.backend.sim`
(the default; wraps the existing scheduler, bit-identical to calling it
directly) and :mod:`repro.backend.mp` (real ``multiprocessing`` ranks
with pickle-over-pipe transport and shared-memory bulk payloads).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Sequence

from repro.machine.metrics import BackendResult

__all__ = [
    "RankProgram",
    "BackendResult",
    "BackendUnavailable",
    "ExecutionBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "backend_help",
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
        Registry name (``"sim"``, ``"mp"``).
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
        initial_clocks: Sequence[float] | None = None,
        initial_metrics: Sequence[Any] | None = None,
    ) -> BackendResult:
        """Run one program per rank to completion.

        ``programs[i]`` runs as rank ``i``; ``len(programs)`` must not
        exceed ``machine.nodes``.  Keyword arguments mirror
        :class:`repro.machine.scheduler.Simulator`; ``initial_metrics``
        are the :class:`repro.machine.metrics.RankMetrics` rows to
        continue accumulating into.  Backends that do not support a
        feature (e.g. fault injection outside the simulator) raise
        :class:`ValueError` when it is requested rather than silently
        ignoring it.
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


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

@dataclass
class _Entry:
    factory: Callable[..., ExecutionBackend]
    doc: str = ""
    available: Callable[[], str | None] = field(default=lambda: None)


_REGISTRY: dict[str, _Entry] = {}


def register_backend(
    name: str,
    factory: Callable[..., ExecutionBackend],
    *,
    doc: str = "",
    available: Callable[[], str | None] | None = None,
) -> None:
    """Register an engine under ``name``.

    ``factory(**options)`` builds a fresh backend instance.
    ``available()`` returns ``None`` when the backend can run here, or
    a human-readable reason string when it cannot (checked lazily by
    :func:`get_backend` so merely importing the package never fails on
    a restricted host).
    """
    if not name or not name.isidentifier():
        raise ValueError(f"bad backend name {name!r}")
    _REGISTRY[name] = _Entry(
        factory=factory, doc=doc, available=available or (lambda: None)
    )


def get_backend(name: str = "sim", **options: Any) -> ExecutionBackend:
    """Instantiate a registered backend by name.

    Raises :class:`ValueError` for unknown names and
    :class:`BackendUnavailable` when the backend exists but cannot run
    on this host (e.g. ``mp`` without the ``fork`` start method).
    """
    entry = _REGISTRY.get(name)
    if entry is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown backend {name!r}; known backends: {known}")
    reason = entry.available()
    if reason is not None:
        raise BackendUnavailable(f"backend {name!r} unavailable: {reason}")
    return entry.factory(**options)


def available_backends() -> list[str]:
    """Names of registered backends that can run on this host, sorted."""
    return sorted(
        name for name, e in _REGISTRY.items() if e.available() is None
    )


def backend_help() -> dict[str, str]:
    """``{name: one-line description}`` for every registered backend."""
    return {name: e.doc for name, e in sorted(_REGISTRY.items())}
