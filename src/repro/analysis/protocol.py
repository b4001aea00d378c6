"""Whole-program communication-protocol rules (RPR010–RPR013).

All four consume the program's :class:`CommSummary` plus the call
graph, so they see defects no per-file rule can: a collective skipped
on one rank-dependent path (RPR010), a tag sent but never received
anywhere or vice versa (RPR011), a blocking wildcard receive reachable
in a loop — possibly a caller's — with no ``status.source``
disambiguation (RPR012), and reserved tags forged outside the
tag-authority modules (RPR013).  Each rule's ``rationale`` says why it
matters.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import TAG_CONSTANT_MODULES, Program, local_walk
from repro.analysis.engine import Rule, register
from repro.analysis.model import CommSite, Finding

#: Mirror of :data:`repro.machine.simmpi.MAX_USER_TAG`, used only when
#: the authority module is outside the analyzed path set (a test
#: asserts the two stay equal).
MAX_USER_TAG_FALLBACK = 10_000_000


def _max_user_tag(program: Program) -> int:
    v = program.lookup_constant("machine.simmpi.MAX_USER_TAG")
    return v if v is not None else MAX_USER_TAG_FALLBACK


def _finding(site: CommSite, code: str, message: str) -> Finding:
    func = site.func
    return func.module.finding(site.node, code, message, func.qname)


# ----------------------------------------------------------------------
# RPR010 — collective divergence across rank-dependent control flow


def _mentions_rank(expr: ast.AST) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in ("rank", "vrank"):
            return True
        if isinstance(node, ast.Attribute) and node.attr in ("rank", "vrank"):
            return True
    return False


def _subtree_ids(stmts: list[ast.stmt]) -> set[int]:
    out: set[int] = set()
    for s in stmts:
        for n in ast.walk(s):
            out.add(id(n))
    return out


def _has_toplevel_return(stmts: list[ast.stmt]) -> bool:
    return any(isinstance(s, ast.Return) for s in stmts)


@register
class CollectiveDivergence(Rule):
    code = "RPR010"
    name = "collective-skipped-on-path"
    summary = (
        "collective executed on one rank-dependent control-flow path "
        "but skipped on another"
    )
    rationale = (
        "Collectives are rendezvous points: every rank of the "
        "communicator must call them in the same order.  A collective "
        "under `if rank == 0:` (with no matching call on the other "
        "path, or skipped by an early return) leaves the other ranks "
        "blocked in it forever — the classic SPMD hang.  Whole-program "
        "only: needs branch-sensitive placement of collective sites."
    )
    whole_program = True

    def check(self, program: Program) -> Iterator[Finding]:
        by_func: dict[str, list[CommSite]] = {}
        for site in program.summary.collectives():
            by_func.setdefault(site.func.qname, []).append(site)
        for qname, sites in sorted(by_func.items()):
            func = program.functions[qname]
            for node in local_walk(func.node):
                if not isinstance(node, ast.If) or not _mentions_rank(node.test):
                    continue
                body_ids = _subtree_ids(node.body)
                else_ids = _subtree_ids(node.orelse)
                in_body = [s for s in sites if id(s.node) in body_ids]
                in_else = [s for s in sites if id(s.node) in else_ids]
                body_ops = {s.op for s in in_body}
                else_ops = {s.op for s in in_else}
                try:
                    test_txt = ast.unparse(node.test)
                except Exception:  # pragma: no cover
                    test_txt = "<rank test>"
                for s in in_body:
                    if s.op not in else_ops:
                        yield _finding(
                            s,
                            "RPR010",
                            f"collective '{s.op}' runs only when rank test "
                            f"`{test_txt}` is true; ranks taking the other "
                            "path never join it and the collective hangs",
                        )
                for s in in_else:
                    if s.op not in body_ops:
                        yield _finding(
                            s,
                            "RPR010",
                            f"collective '{s.op}' runs only when rank test "
                            f"`{test_txt}` is false; ranks taking the other "
                            "path never join it and the collective hangs",
                        )
                # early return under a rank test with collectives after it
                if _has_toplevel_return(node.body) and not node.orelse:
                    if_ids = _subtree_ids([node])
                    later = [
                        s
                        for s in sites
                        if id(s.node) not in if_ids
                        and s.pos > (node.lineno, node.col_offset)
                    ]
                    if later and not in_body:
                        s = min(later, key=lambda s: s.pos)
                        yield _finding(
                            s,
                            "RPR010",
                            f"collective '{s.op}' is skipped by the early "
                            f"return under rank test `{test_txt}`; the "
                            "remaining ranks hang waiting for it",
                        )


# ----------------------------------------------------------------------
# RPR011 — tags sent but never received (and vice versa)


def _tag_key(site: CommSite, max_user: int):
    t = site.tag
    if t is None or t.wildcard:
        return None
    if t.value is not None:
        if t.value >= max_user or t.value < 0:
            return None  # reserved space is RPR013's domain
        return ("val", t.value)
    if t.symbol is not None and t.symbol.isidentifier():
        return ("sym", t.symbol.rsplit(".", 1)[-1])
    return None


@register
class UnmatchedTag(Rule):
    code = "RPR011"
    name = "unmatched-tag"
    summary = (
        "message tag sent but never received anywhere in the program "
        "(or received but never sent)"
    )
    rationale = (
        "A send whose tag no receive in the whole program matches is "
        "dead traffic at best and a buffered-send leak at worst; a "
        "receive whose tag is never sent blocks its rank forever.  "
        "Matching is done on resolved constant values (following "
        "`from x import TAG` chains) and falls back to constant names, "
        "so renaming one side of a protocol is caught statically."
    )
    whole_program = True

    def check(self, program: Program) -> Iterator[Finding]:
        max_user = _max_user_tag(program)
        sends: dict[object, list[CommSite]] = {}
        recvs: dict[object, list[CommSite]] = {}
        wildcard_tag_recv = False
        for site in program.summary.p2p():
            key = _tag_key(site, max_user)
            if site.kind in ("recv", "probe"):
                if site.tag is not None and site.tag.wildcard:
                    wildcard_tag_recv = True
                if key is not None:
                    recvs.setdefault(key, []).append(site)
            if site.kind == "send" and key is not None:
                sends.setdefault(key, []).append(site)

        def symbolic_names(table: dict[object, list[CommSite]]) -> set[str]:
            out: set[str] = set()
            for sites in table.values():
                for s in sites:
                    if s.tag and s.tag.symbol:
                        out.add(s.tag.symbol.rsplit(".", 1)[-1])
            return out

        recv_syms = symbolic_names(recvs)
        send_syms = symbolic_names(sends)

        def matched(key: object, other: dict, other_syms: set[str], sites) -> bool:
            if key in other:
                return True
            # value-keyed on one side, symbol-keyed on the other (or the
            # reverse): fall back to matching by constant *name*.
            for s in sites:
                if s.tag and s.tag.symbol:
                    if s.tag.symbol.rsplit(".", 1)[-1] in other_syms:
                        return True
            return False

        for key in sorted(sends, key=str):
            if matched(key, recvs, recv_syms, sends[key]) or wildcard_tag_recv:
                continue
            site = min(sends[key], key=lambda s: (s.func.module.rel, s.pos))
            tag_txt = site.tag.describe() if site.tag else str(key)
            n = len(sends[key])
            extra = f" ({n} send site(s))" if n > 1 else ""
            phase = f" in phase '{site.phase}'" if site.phase else ""
            yield _finding(
                site,
                "RPR011",
                f"tag {tag_txt} is sent{phase} but no receive for it exists "
                f"anywhere in the program{extra}; the message can never be "
                "consumed",
            )
        for key in sorted(recvs, key=str):
            if matched(key, sends, send_syms, recvs[key]):
                continue
            site = min(recvs[key], key=lambda s: (s.func.module.rel, s.pos))
            tag_txt = site.tag.describe() if site.tag else str(key)
            phase = f" in phase '{site.phase}'" if site.phase else ""
            yield _finding(
                site,
                "RPR011",
                f"tag {tag_txt} is received{phase} but never sent anywhere "
                "in the program; this receive blocks forever",
            )


# ----------------------------------------------------------------------
# RPR012 — unguarded blocking wildcard receive reachable in a loop


def _inspects_source(root: ast.AST) -> bool:
    for node in ast.walk(root):
        if isinstance(node, ast.Attribute) and node.attr == "source":
            return True
    return False


@register
class UnguardedWildcardRecvLoop(Rule):
    code = "RPR012"
    name = "unguarded-wildcard-recv-loop"
    summary = (
        "blocking wildcard-source recv reachable in a loop without "
        "status.source disambiguation"
    )
    rationale = (
        "A blocking `recv(ANY_SOURCE)` in a loop consumes racing sends "
        "in arrival order.  Unless the loop disambiguates via "
        "`status.source` (e.g. `out[status.source] = data`), the "
        "result depends on message timing — which breaks the "
        "bit-determinism contract the simulated machine guarantees "
        "and real MPI does not.  Interprocedural: the loop may be in "
        "a caller of the receiving helper."
    )
    whole_program = True

    def check(self, program: Program) -> Iterator[Finding]:
        for site in program.summary.p2p():
            if site.kind != "recv" or not site.blocking or not site.src_wildcard:
                continue
            loop = site.func.enclosing_loop(site.node)
            if loop is not None:
                if not _inspects_source(loop):
                    yield _finding(
                        site,
                        "RPR012",
                        f"blocking wildcard-source '{site.op}' inside a loop "
                        "with no status.source disambiguation; racing sends "
                        "can be consumed in either order, breaking "
                        "bit-determinism",
                    )
                continue
            # not lexically in a loop: a caller may loop over this function
            if _inspects_source(site.func.node):
                continue
            flagged = False
            frontier = [site.func.qname]
            seen = {site.func.qname}
            for _depth in range(2):
                nxt: list[str] = []
                for qn in frontier:
                    for call in program.callers.get(qn, []):
                        if flagged:
                            break
                        if call.in_loop and not _inspects_source(
                            call.caller.node
                        ):
                            yield _finding(
                                site,
                                "RPR012",
                                f"blocking wildcard-source '{site.op}' is "
                                f"reached in a loop via {call.caller.qname} "
                                "with no status.source disambiguation; "
                                "racing sends can arrive in either order",
                            )
                            flagged = True
                        elif call.caller.qname not in seen:
                            seen.add(call.caller.qname)
                            nxt.append(call.caller.qname)
                if flagged:
                    break
                frontier = nxt


# ----------------------------------------------------------------------
# RPR013 — reserved-tag forgery outside the tag authority


_RESERVED_PREFIXES = ("_TAG_", "_COLL_TAG")


@register
class ReservedTagForgery(Rule):
    code = "RPR013"
    name = "reserved-tag-forgery"
    summary = (
        "tag at/above MAX_USER_TAG (or a reserved _TAG_* constant) "
        "used outside the tag-authority modules"
    )
    rationale = (
        "Everything at or above MAX_USER_TAG is reserved for "
        "collective rounds, heartbeats and the failure agreement.  "
        "User code that forges a reserved tag can intercept "
        "another rank's collective round or heartbeat, corrupting "
        "protocol state in ways the runtime sanitizer only catches on "
        "paths a case actually executes."
    )
    whole_program = True

    def check(self, program: Program) -> Iterator[Finding]:
        max_user = _max_user_tag(program)
        for site in program.summary.p2p():
            if site.func.module.is_tag_module:
                continue
            t = site.tag
            if t is None or t.wildcard:
                continue
            sym = t.symbol.rsplit(".", 1)[-1] if t.symbol else ""
            if t.value is not None and t.value >= max_user:
                yield _finding(
                    site,
                    "RPR013",
                    f"'{site.op}' uses tag {t.describe()} which is at or "
                    f"above MAX_USER_TAG ({max_user}); the reserved space "
                    "belongs to collectives/heartbeats and forging it "
                    "corrupts protocol state",
                )
            elif any(sym.startswith(p) for p in _RESERVED_PREFIXES):
                yield _finding(
                    site,
                    "RPR013",
                    f"'{site.op}' uses reserved tag constant {sym} outside "
                    "the tag-authority modules "
                    f"({', '.join(TAG_CONSTANT_MODULES)})",
                )
