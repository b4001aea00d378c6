"""Data model of the static checker (``repro check``).

Everything downstream of the loader works on these types:

* :class:`Finding` — one defect at a source location; whole-program
  rules also record the enclosing function so baseline entries survive
  line drift;
* :data:`COMM_OPS` / :data:`RAW_OPS` — the one table of the ``Comm``
  surface (direction, blocking, argument positions, wildcard default);
  a new primitive is added here and nowhere else;
* :class:`TagInfo` — a (possibly) resolved message-tag expression;
* :class:`CommSite` — one communication call site (p2p, probe,
  collective or raw scheduler primitive) with tag, phase and loop
  context;
* :class:`LockWrite` / :class:`LockedCall` — lock-discipline facts
  collected per class by :mod:`repro.analysis.locks`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analysis.callgraph import FunctionInfo


@dataclass(frozen=True, order=True)
class Finding:
    """One ``repro check`` finding.

    ``function`` is the enclosing function's qualified name where the
    rule knows it (the whole-program rules do): baseline entries match
    on ``(code, path, function, message substring)`` so they stay
    stable when unrelated edits shift line numbers.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    function: str = ""

    def format(self) -> str:
        where = f" [{self.function}]" if self.function else ""
        return (
            f"{self.path}:{self.line}:{self.col} {self.code} "
            f"{self.message}{where}"
        )

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "function": self.function,
        }


@dataclass(frozen=True)
class TagInfo:
    """A message-tag expression, resolved as far as statically possible.

    ``value`` is the concrete integer when the expression reduces to
    module-level constants; ``symbol`` is the source spelling (dotted
    name or expression text) kept for messages and symbolic matching;
    ``wildcard`` marks ``ANY_TAG``.
    """

    value: int | None = None
    symbol: str | None = None
    wildcard: bool = False

    def describe(self) -> str:
        if self.wildcard:
            return "ANY_TAG"
        if self.symbol and self.value is not None:
            return f"{self.symbol} (= {self.value})"
        if self.symbol:
            return self.symbol
        if self.value is not None:
            return str(self.value)
        return "<unresolved>"


@dataclass(frozen=True)
class CommOp:
    """One row of the ``Comm`` surface: what an op does and where its
    arguments sit.  Positions index the call's positional arguments
    (keywords ``src`` / ``tag`` / ``patterns`` are honoured too) or,
    for a raw primitive, the yielded tuple (element 0 is the op name).
    """

    kind: str  # "send" | "recv" | "probe"
    blocking: bool
    tag: int | None = None
    src: int | None = None  # receive side only
    src_defaults_any: bool = False  # an omitted ``src`` is ANY_SOURCE
    patterns: int | None = None  # a tuple of (src, tag) pairs instead


_RECV = CommOp("recv", True, tag=1, src=0, src_defaults_any=True)
_NB_RECV = CommOp("recv", False, tag=1, src=0, src_defaults_any=True)
_POLL = CommOp("recv", False, tag=1, src=0)
_IPROBE = CommOp("probe", False, tag=1, src=0, src_defaults_any=True)
_SEND = CommOp("send", False, tag=1)
_WAITANY = CommOp("probe", True, patterns=0)

#: ``yield from comm.<op>(...)`` calls, by attribute name.  ``waitany``
#: is one blocking probe per ``(src, tag)`` pattern spelled out at the
#: call.
COMM_OPS: dict[str, CommOp] = {
    "send": _SEND,
    "_send": _SEND,
    "recv": _RECV,
    "_recv": _RECV,
    "drain_recv": _NB_RECV,
    "_tryrecv": _POLL,
    "iprobe": _IPROBE,
    "waitany": _WAITANY,
}

#: Raw scheduler primitives (``yield ("inject", dst, tag, ...)``).
RAW_OPS: dict[str, CommOp] = {
    "inject": CommOp("send", False, tag=2),
    "recv": CommOp("recv", True, tag=2, src=1),
    "tryrecv": CommOp("recv", False, tag=2, src=1),
    "iprobe": CommOp("probe", False, tag=2, src=1),
    "drain": CommOp("recv", False, tag=2, src=1),
    "waitany": CommOp("probe", True, patterns=1),
}

#: Collective ops (every rank of the communicator must call them).
COLLECTIVE_OPS = frozenset(
    {
        "barrier",
        "bcast",
        "gather",
        "allgather",
        "reduce",
        "allreduce",
        "detect_failures",
    }
)


@dataclass
class CommSite:
    """One communication call site found in a rank program."""

    func: "FunctionInfo"
    node: ast.AST  # the ``yield from`` / ``yield`` expression
    op: str  # "send", "recv", "bcast", ... (attr name or raw primitive)
    kind: str  # "send" | "recv" | "probe" | "collective"
    blocking: bool
    comm_expr: str  # receiver expression text ("comm", "self", "sub")
    call: ast.Call | None = None  # ``None`` for a raw primitive
    tag_expr: ast.expr | None = None
    tag: TagInfo | None = None
    src_wildcard: bool | None = None  # recv side: ANY_SOURCE (or default)
    phase: str | None = None
    in_loop: bool = False

    @property
    def raw(self) -> bool:
        return self.call is None

    @property
    def pos(self) -> tuple[int, int]:
        return (
            getattr(self.node, "lineno", 1),
            getattr(self.node, "col_offset", 0),
        )

    def to_dict(self) -> dict:
        return {
            "path": self.func.module.rel,
            "function": self.func.qname,
            "line": self.pos[0],
            "op": self.op,
            "kind": "raw" if self.raw else self.kind,
            "blocking": self.blocking,
            "comm": self.comm_expr,
            "tag": self.tag.describe() if self.tag else None,
            "src_wildcard": self.src_wildcard,
            "phase": self.phase,
            "in_loop": self.in_loop,
        }


@dataclass
class LockWrite:
    """A write to ``self.<attr>`` with the set of locks held at it."""

    attr: str
    held: frozenset[str]  # canonical lock ids ("pkg.mod.Cls._lock")
    func: "FunctionInfo"
    node: ast.AST


@dataclass
class LockedCall:
    """A call expression with lock-held context (for RPR015)."""

    node: ast.Call
    held: tuple[str, ...]  # acquisition-ordered canonical/heuristic ids
    held_exprs: frozenset[str]  # syntactic with-context texts
    func: "FunctionInfo"


@dataclass
class LockOrderEdge:
    """Lock B acquired while lock A held, at a concrete site."""

    first: str
    second: str
    func: "FunctionInfo"
    node: ast.AST


@dataclass
class CommSummary:
    """Whole-program communication summary."""

    sites: list[CommSite] = field(default_factory=list)

    def p2p(self) -> list[CommSite]:
        """User-level point-to-point sites (raw primitives excluded)."""
        return [
            s
            for s in self.sites
            if not s.raw and s.kind != "collective"
        ]

    def collectives(self) -> list[CommSite]:
        return [s for s in self.sites if s.kind == "collective"]

    def to_dicts(self) -> list[dict]:
        return [s.to_dict() for s in self.sites]
