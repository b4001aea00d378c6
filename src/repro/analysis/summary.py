"""Communication-site extraction: the one reader of the Comm surface.

SimMPI rank programs are generators, so every communication operation is
invoked as ``yield from comm.<op>(...)`` — an :class:`ast.YieldFrom`
wrapping a call — or, inside the machine layer itself, as a raw
``yield ("inject", ...)`` scheduler primitive.  That syntactic anchor
cleanly separates the comm surface from look-alike socket/pipe methods
(``sock.recv``, ``conn.send_bytes``), which are plain calls and belong
to the lock pass instead.

For every site we record the op, its row of :data:`~repro.analysis.
model.COMM_OPS` (direction, blocking), the tag expression (resolved
through module-level constants and import chains), source-wildcardness,
enclosing phase (the last ``set_phase("...")`` lexically above it in the
same function) and loop context.  Per-file rules read the sites of their
module (``ModuleInfo.comm_sites``), whole-program rules the full
:class:`CommSummary`.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import (
    FunctionInfo,
    Program,
    dotted_name,
    resolve_int,
)
from repro.analysis.model import (
    COLLECTIVE_OPS,
    COMM_OPS,
    RAW_OPS,
    CommOp,
    CommSite,
    CommSummary,
    TagInfo,
)

_WILDCARD_SRC_NAMES = {"ANY_SOURCE"}
_WILDCARD_TAG_NAMES = {"ANY_TAG"}


def _last_component(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def literal_patterns(
    expr: ast.AST | None,
) -> list[tuple[ast.expr | None, ast.expr | None]]:
    """``(src, tag)`` expression pairs spelled out in a ``waitany``
    patterns argument; both arms of a conditional pattern count."""
    out: list[tuple[ast.expr | None, ast.expr | None]] = []
    for elt in getattr(expr, "elts", ()):
        arms = [elt.body, elt.orelse] if isinstance(elt, ast.IfExp) else [elt]
        for arm in arms:
            if isinstance(arm, (ast.Tuple, ast.List)) and len(arm.elts) == 2:
                out.append((arm.elts[0], arm.elts[1]))
    return out


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
    return TagInfo(value=value, symbol=ast.unparse(expr))


def _is_wildcard_src(expr: ast.expr) -> bool | None:
    dotted = dotted_name(expr)
    if dotted and _last_component(dotted) in _WILDCARD_SRC_NAMES:
        return True
    if isinstance(expr, ast.Constant) or dotted:
        return False
    return None  # dynamic expression — unknown


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
    return call, f.attr, ast.unparse(f.value)


def _raw_primitive(node: ast.AST) -> tuple[str, list[ast.expr]] | None:
    """``(op, tuple elements)`` of a ``yield ("inject", ...)`` primitive."""
    if not isinstance(node, ast.Yield) or not isinstance(node.value, ast.Tuple):
        return None
    elts = node.value.elts
    if (
        elts
        and isinstance(elts[0], ast.Constant)
        and elts[0].value in RAW_OPS
    ):
        return elts[0].value, elts
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


def _sites_at(
    node: ast.AST, func: FunctionInfo, program: Program
) -> list[CommSite]:
    """The comm sites ``node`` is, read off the Comm-surface table."""
    raw = _raw_primitive(node)
    got = _comm_call(node)
    call: ast.Call | None = None
    row: CommOp | None
    keywords: list[ast.keyword] = []
    if raw is not None:
        op, args = raw
        comm_expr, row = "<scheduler>", RAW_OPS[op]
    elif got is not None:
        call, op, comm_expr = got
        args, keywords, row = call.args, call.keywords, COMM_OPS.get(op)
        if row is None and op not in COLLECTIVE_OPS:
            return []
    else:
        return []

    def arg(pos: int | None, kw: str) -> ast.expr | None:
        for k in keywords:
            if k.arg == kw:
                return k.value
        if pos is not None and len(args) > pos:
            return args[pos]
        return None

    def site(kind: str, blocking: bool, **where) -> CommSite:
        return CommSite(
            func=func, node=node, op=op, kind=kind, blocking=blocking,
            comm_expr=comm_expr, call=call, **where,
        )

    if row is None:
        return [site("collective", True)]
    if row.patterns is not None:
        pairs = literal_patterns(arg(row.patterns, "patterns"))
        if call is None and not pairs:
            pairs = [(None, None)]  # the scheduler still sees the yield
    else:
        pairs = [(arg(row.src, "src"), arg(row.tag, "tag"))]
    out = []
    for src, tag in pairs:
        wildcard = None
        if row.kind != "send" and src is not None:
            wildcard = _is_wildcard_src(src)
        elif row.src_defaults_any:
            wildcard = True
        out.append(
            site(
                row.kind,
                row.blocking,
                tag_expr=tag,
                # a raw primitive forwards its caller's tag: nothing to
                # resolve, and p2p matching never looks at raw sites
                tag=resolve_tag(tag, func, program) if call else None,
                src_wildcard=wildcard,
            )
        )
    return out


def extract_summary(program: Program) -> CommSummary:
    """Every communication site in the linked program, with full
    context; also files each site under its module's ``comm_sites``."""
    summary = CommSummary()
    for mod in program.files:
        mod.comm_sites = []
    for func in program.functions.values():
        events = _phases_for(func)
        for node in func.body_nodes():
            for s in _sites_at(node, func, program):
                s.phase = _phase_at(events, s.pos)
                s.in_loop = func.enclosing_loop(node) is not None
                summary.sites.append(s)
    summary.sites.sort(key=lambda s: (s.func.module.rel, s.pos))
    for s in summary.sites:
        s.func.module.comm_sites.append(s)
    return summary
