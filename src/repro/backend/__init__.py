"""Pluggable execution backends for rank programs.

Rank programs are backend-neutral: they yield primitive operation
tuples through :class:`repro.machine.simmpi.Comm` and never observe how
those primitives execute.  This package provides the engine interface
(:mod:`repro.backend.api`) and three engines:

``sim`` (default)
    The conservative discrete-event simulator — deterministic modeled
    virtual time, full feature surface (fault injection, sanitizer,
    golden traces).  See :mod:`repro.backend.sim`.
``mp``
    Real ``multiprocessing`` processes with pickle-over-pipe transport
    and shared-memory bulk payloads — measured host wall-clock time,
    identical physics.  See :mod:`repro.backend.mp`.
``cluster``
    Multi-host execution over per-host ``repro node`` daemons speaking
    length-framed TCP, with elastic failure recovery — measured wall
    time, identical physics, survives node loss.  See
    :mod:`repro.cluster`.

Select by name::

    from repro.backend import get_backend
    out = get_backend("mp").run_spmd(machine, program, nranks=4)

The mp and cluster modules are imported lazily so hosts that cannot
run them (no ``fork``) still import this package and use ``sim``.
"""

from __future__ import annotations

from repro.backend.api import (
    BACKENDS,
    BackendResult,
    BackendUnavailable,
    ExecutionBackend,
    RankProgram,
    get_backend,
)
from repro.backend.sim import SimBackend

__all__ = [
    "BACKENDS",
    "BackendResult",
    "BackendUnavailable",
    "ExecutionBackend",
    "RankProgram",
    "SimBackend",
    "get_backend",
]
