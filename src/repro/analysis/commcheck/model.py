"""Data model for the whole-program comm/lock analyzer (``repro check``).

Everything downstream of the loader works on these types:

* :class:`CheckFinding` — one defect at a source location, with the
  enclosing function recorded so baseline entries survive line drift;
* :class:`TagInfo` — a (possibly) resolved message-tag expression;
* :class:`CommSite` — one communication call site (p2p, probe or
  collective) with tag, phase and loop context;
* :class:`LockWrite` / :class:`LockedCall` — lock-discipline facts
  collected per class by :mod:`repro.analysis.commcheck.locks`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analysis.commcheck.callgraph import FunctionInfo


@dataclass(frozen=True, order=True)
class CheckFinding:
    """One ``repro check`` finding.

    Unlike the per-file lint :class:`repro.analysis.lint.Finding`, this
    carries the enclosing function's qualified name: baseline entries
    match on ``(code, path, function, message substring)`` so they stay
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


#: p2p ops: attr name -> (direction, blocking, src/dst argpos, tag argpos)
P2P_OPS: dict[str, tuple[str, bool, int, int]] = {
    "send": ("send", False, 0, 1),
    "_send": ("send", False, 0, 1),
    "isend": ("send", False, 0, 1),
    "recv": ("recv", True, 0, 1),
    "_recv": ("recv", True, 0, 1),
    "irecv": ("recv", False, 0, 1),
    "drain_recv": ("recv", False, 0, 1),
    "_drain": ("recv", False, 0, 1),
    "_tryrecv": ("recv", False, 0, 1),
    "iprobe": ("probe", False, 0, 1),
    "_iprobe": ("probe", False, 0, 1),
}

#: A blocking probe over N ``(src, tag)`` patterns (first argument); one
#: "probe" site per pattern that is spelled out at the call.
WAITANY_OPS = frozenset({"waitany", "_waitany"})

#: sendrecv is both sides: (dst, src, tag) positions.
SENDRECV_OP = "sendrecv"

#: Collective ops (every rank of the communicator must call them).
COLLECTIVE_OPS = frozenset(
    {
        "barrier",
        "bcast",
        "gather",
        "allgather",
        "reduce",
        "allreduce",
        "alltoall",
        "detect_failures",
    }
)

#: Raw scheduler primitives (``yield ("inject", ...)`` tuples).
RAW_PRIMITIVES = frozenset(
    {"inject", "recv", "tryrecv", "iprobe", "drain", "waitany"}
)


@dataclass
class CommSite:
    """One communication call site found in a rank program."""

    func: "FunctionInfo"
    node: ast.AST
    op: str  # "send", "recv", "bcast", ... (attr name or raw primitive)
    kind: str  # "send" | "recv" | "probe" | "both" | "collective" | "raw"
    blocking: bool
    comm_expr: str  # receiver expression text ("comm", "self", "sub")
    tag: TagInfo | None = None
    src_wildcard: bool | None = None  # recv side: ANY_SOURCE (or default)
    phase: str | None = None
    in_loop: bool = False

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
            "kind": self.kind,
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
        return [s for s in self.sites if s.kind in ("send", "recv", "probe", "both")]

    def collectives(self) -> list[CommSite]:
        return [s for s in self.sites if s.kind == "collective"]

    def to_dicts(self) -> list[dict]:
        return [
            s.to_dict()
            for s in sorted(
                self.sites, key=lambda s: (s.func.module.rel, s.pos)
            )
        ]
