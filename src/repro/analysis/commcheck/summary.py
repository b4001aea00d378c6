"""Whole-program communication-summary extraction.

SimMPI rank programs are generators, so every communication operation is
invoked as ``yield from comm.<op>(...)`` — an :class:`ast.YieldFrom`
wrapping a call.  That syntactic anchor cleanly separates the comm
surface from look-alike socket/pipe methods (``sock.recv``,
``conn.send_bytes``), which are plain calls and belong to the lock pass
instead.

For every site we record the op, tag (resolved through module-level
constants and import chains), source-wildcardness, enclosing phase (the
last ``set_phase("...")`` lexically above it in the same function) and
loop context.
"""

from __future__ import annotations

import ast

from repro.analysis.commcheck.callgraph import (
    FunctionInfo,
    Program,
    dotted_name,
    resolve_int,
)
from repro.analysis.commcheck.model import (
    COLLECTIVE_OPS,
    P2P_OPS,
    RAW_PRIMITIVES,
    SENDRECV_OP,
    WAITANY_OPS,
    CommSite,
    CommSummary,
    TagInfo,
)
from repro.analysis.lint import literal_patterns

_WILDCARD_SRC_NAMES = {"ANY_SOURCE"}
_WILDCARD_TAG_NAMES = {"ANY_TAG"}


def _arg(call: ast.Call, pos: int, kw: str) -> ast.expr | None:
    for k in call.keywords:
        if k.arg == kw:
            return k.value
    if len(call.args) > pos:
        return call.args[pos]
    return None


def _last_component(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def resolve_tag(
    expr: ast.expr | None, func: FunctionInfo, program: Program
) -> TagInfo | None:
    if expr is None:
        return None
    dotted = dotted_name(expr)
    if dotted and _last_component(dotted) in _WILDCARD_TAG_NAMES:
        return TagInfo(wildcard=True, symbol=dotted)
    value = resolve_int(expr, func, program)
    if dotted is not None:
        return TagInfo(value=value, symbol=dotted)
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
        return TagInfo(value=expr.value)
    try:
        text = ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        text = "<expr>"
    return TagInfo(value=value, symbol=text)


def _src_wildcard(
    call: ast.Call, pos: int, has_default_wildcard: bool
) -> bool | None:
    expr = _arg(call, pos, "src")
    if expr is None:
        # simmpi recv/irecv/iprobe/drain_recv default src=ANY_SOURCE
        return True if has_default_wildcard else None
    return _is_wildcard_src(expr)


def _is_wildcard_src(expr: ast.expr) -> bool | None:
    dotted = dotted_name(expr)
    if dotted and _last_component(dotted) in _WILDCARD_SRC_NAMES:
        return True
    if isinstance(expr, ast.Constant) or dotted:
        return False
    return None  # dynamic expression — unknown


#: recv-side ops whose ``src`` parameter *defaults* to ANY_SOURCE.
_DEFAULT_WILDCARD_OPS = frozenset(
    {"recv", "_recv", "irecv", "drain_recv", "iprobe", "_iprobe"}
)


def _comm_call(node: ast.AST) -> tuple[ast.Call, str, str] | None:
    """``(call, op, comm_expr)`` when ``node`` is ``yield from c.op(...)``."""
    if not isinstance(node, ast.YieldFrom):
        return None
    call = node.value
    if not isinstance(call, ast.Call):
        return None
    f = call.func
    if not isinstance(f, ast.Attribute):
        return None
    try:
        comm_expr = ast.unparse(f.value)
    except Exception:  # pragma: no cover
        comm_expr = "<comm>"
    return call, f.attr, comm_expr


def _raw_site(node: ast.AST) -> str | None:
    """Primitive scheduler yields: ``yield ("inject", ...)`` tuples."""
    if not isinstance(node, ast.Yield) or node.value is None:
        return None
    v = node.value
    if (
        isinstance(v, ast.Tuple)
        and v.elts
        and isinstance(v.elts[0], ast.Constant)
        and isinstance(v.elts[0].value, str)
        and v.elts[0].value in RAW_PRIMITIVES
    ):
        return v.elts[0].value
    return None


def _phases_for(func: FunctionInfo) -> list[tuple[tuple[int, int], str]]:
    """``set_phase`` events in this function, position-sorted."""
    events: list[tuple[tuple[int, int], str]] = []
    for node in func.body_nodes():
        got = _comm_call(node)
        if got is None:
            continue
        call, op, _ = got
        if op == "set_phase" and call.args:
            arg = call.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                events.append(
                    ((node.lineno, node.col_offset), arg.value)
                )
    events.sort()
    return events


def _phase_at(
    events: list[tuple[tuple[int, int], str]], pos: tuple[int, int]
) -> str | None:
    phase = None
    for epos, name in events:
        if epos <= pos:
            phase = name
        else:
            break
    return phase


def _in_loop(func: FunctionInfo, node: ast.AST) -> bool:
    for anc in func.module.ancestors(node):
        if anc is func.node:
            return False
        if isinstance(anc, (ast.For, ast.AsyncFor, ast.While)):
            return True
    return False


def extract_summary(program: Program) -> CommSummary:
    """Every communication site in the program, with full context."""
    summary = CommSummary()
    for func in program.functions.values():
        events = _phases_for(func)
        for node in func.body_nodes():
            raw = _raw_site(node)
            got = _comm_call(node)
            if raw is None and got is None:
                continue
            call, op, comm_expr = got or (None, raw, "<scheduler>")

            def add(kind: str, blocking: bool = True, **where) -> None:
                summary.sites.append(
                    CommSite(
                        func=func,
                        node=node,
                        op=op,
                        kind=kind,
                        blocking=blocking,
                        comm_expr=comm_expr,
                        phase=_phase_at(
                            events, (node.lineno, node.col_offset)
                        ),
                        in_loop=_in_loop(func, node),
                        **where,
                    )
                )

            if raw is not None:
                add("raw", raw in ("recv", "waitany"))
            elif op in COLLECTIVE_OPS:
                add("collective")
            elif op == SENDRECV_OP:
                add(
                    "both",
                    tag=resolve_tag(_arg(call, 2, "tag"), func, program),
                    src_wildcard=_src_wildcard(call, 1, False),
                )
            elif op in WAITANY_OPS:
                for src, tag in literal_patterns(_arg(call, 0, "patterns")):
                    add(
                        "probe",
                        tag=resolve_tag(tag, func, program),
                        src_wildcard=_is_wildcard_src(src),
                    )
            elif op in P2P_OPS:
                direction, blocking, src_pos, tag_pos = P2P_OPS[op]
                wildcard = None
                if direction in ("recv", "probe"):
                    wildcard = _src_wildcard(
                        call, src_pos, op in _DEFAULT_WILDCARD_OPS
                    )
                add(
                    direction,
                    blocking,
                    tag=resolve_tag(_arg(call, tag_pos, "tag"), func, program),
                    src_wildcard=wildcard,
                )
    summary.sites.sort(key=lambda s: (s.func.module.rel, s.pos))
    return summary
