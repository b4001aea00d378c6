"""Case registry — the single source of truth for case lookup.

The four checked-in paper benchmarks are :class:`CaseEntry` rows in one
registry, registered by :mod:`repro.cases` at import time, so the CLI,
``repro bench`` and the serve daemon resolve names through the same
path and fail with the same typed :class:`UnknownCaseError`.  Every
builder returns a :class:`repro.core.CaseConfig` for
:class:`repro.core.OverflowD1`.  Generated off-body scenarios are not
cases: ``--scenario FILE`` builds them directly with
:func:`repro.offbody.build_offbody_case`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


class UnknownCaseError(ValueError):
    """Raised when a case name is not in the registry.

    Carries the offending ``name`` and the sorted tuple of ``known``
    names so callers (CLI, serve daemon) can render a helpful message
    without string-parsing.
    """

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name = name
        self.known = known
        super().__init__(
            f"unknown case {name!r}; choose from {', '.join(known)}"
        )


@dataclass(frozen=True)
class CaseEntry:
    """One runnable case: a name bound to a builder callable."""

    name: str
    builder: Callable[..., Any]
    help: str = ""


_REGISTRY: dict[str, CaseEntry] = {}


def register_case(
    name: str, builder: Callable[..., Any], *, help: str = ""
) -> CaseEntry:
    """Register ``builder`` under ``name``; a name registers once."""
    if name in _REGISTRY:
        raise ValueError(f"case {name!r} already registered")
    entry = _REGISTRY[name] = CaseEntry(name=name, builder=builder, help=help)
    return entry


def case_entry(name: str) -> CaseEntry:
    """Look up a case; raises :class:`UnknownCaseError` on a miss."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownCaseError(name, tuple(sorted(_REGISTRY))) from None


def case_names() -> tuple[str, ...]:
    """Sorted registered names."""
    return tuple(sorted(_REGISTRY))


def build_case(name: str, **kwargs: Any) -> Any:
    """Resolve ``name`` and invoke its builder with ``kwargs``."""
    return case_entry(name).builder(**kwargs)
