"""Whole-program lock-discipline rules (RPR014–RPR015) over the threaded
serve/cluster/head code.

Three defect classes, all invisible to a per-file rule:

* **RPR014** — (a) an instance attribute written both with and without
  a given lock held (a torn-read/lost-update window), and (b) two locks
  acquired in opposite orders on different code paths (an ABBA deadlock
  waiting for the right interleaving).
* **RPR015** — a blocking call (socket/pipe I/O, disk I/O, ``sleep``,
  thread ``join``) made while holding a lock: every other thread
  contending on that lock stalls behind the I/O, and if the I/O's
  completion depends on one of those threads, the process wedges.

Lock identification is two-tier: *canonical* locks are ``self.<attr>``
attributes assigned a ``Lock``/``RLock``/``Condition``/``Semaphore``
factory anywhere in the class (a ``Condition(self._lock)`` aliases to
its underlying lock); *heuristic* locks are any other ``with`` context
whose expression text looks lock-ish (``locks[dst]``, ``self.mutex``).
Canonical locks participate in every check; heuristic ones only in
order/blocking checks, never in mixed-write analysis.

Interprocedural refinements:

* a private method whose intra-class call sites all hold a common lock
  is analyzed as holding that lock (the ``_insert``-under-``_lock``
  pattern);
* a call made under a lock to a function that itself performs blocking
  I/O is flagged at the call site (two levels deep).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.callgraph import _SCOPE_NODES, FunctionInfo, Program
from repro.analysis.engine import Rule, register
from repro.analysis.model import (
    Finding,
    LockOrderEdge,
    LockWrite,
    LockedCall,
)

_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

_LOCKISH_RE = re.compile(r"lock|mutex|_cv\b|cond|sem", re.IGNORECASE)

#: Method names that mutate their receiver in place: ``self.X.append(y)``
#: is a write to ``self.X`` for mixed-write analysis.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

#: Call names that block the calling thread (socket/pipe/disk/clock).
_BLOCKING_CALLS = frozenset(
    {
        "accept",
        "connect",
        "create_connection",
        "getaddrinfo",
        "makefile",
        "read_bytes",
        "read_text",
        "readline",
        "recv",
        "recv_bytes",
        "select",
        "send",
        "send_bytes",
        "sendall",
        "sleep",
        "wait",
        "write_bytes",
        "write_text",
    }
)

#: Ops propagated interprocedurally (``wait`` stays lexical-only: a
#: callee waiting on its *own* condition is the normal cv idiom).
_CLOSURE_BLOCKING = _BLOCKING_CALLS - {"wait"}


@dataclass
class ClassLocks:
    """Canonical lock attributes of one class (with condition aliases)."""

    qname: str  # "pkg.mod.Cls"
    attrs: dict[str, str] = field(default_factory=dict)  # attr -> canonical

    def canonical(self, attr: str) -> str | None:
        return self.attrs.get(attr)


def _dotted_last(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _self_attr(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _discover_class_locks(program: Program) -> dict[str, ClassLocks]:
    """Map ``pkg.mod.Cls`` -> its canonical lock attributes."""
    out: dict[str, ClassLocks] = {}
    for mod in program.modules.values():
        for cls_name, cls_node in mod.classes.items():
            cq = f"{mod.name}.{cls_name}"
            info = ClassLocks(qname=cq)
            aliases: list[tuple[str, str]] = []
            for node in ast.walk(cls_node):
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                attr = _self_attr(node.targets[0])
                if attr is None or not isinstance(node.value, ast.Call):
                    continue
                factory = _dotted_last(node.value.func)
                if factory not in _LOCK_FACTORIES:
                    continue
                if factory == "Condition" and node.value.args:
                    under = _self_attr(node.value.args[0])
                    if under is not None:
                        aliases.append((attr, under))
                        continue
                info.attrs[attr] = f"{cq}.{attr}"
            for attr, under in aliases:
                # Condition(self._lock) shares _lock's identity; if the
                # underlying attr is itself unknown, register it too.
                info.attrs.setdefault(under, f"{cq}.{under}")
                info.attrs[attr] = info.attrs[under]
            if info.attrs:
                out[cq] = info
    return out


@dataclass
class _FuncFacts:
    func: FunctionInfo
    writes: list[LockWrite] = field(default_factory=list)
    calls: list[LockedCall] = field(default_factory=list)
    order_edges: list[LockOrderEdge] = field(default_factory=list)
    self_calls: dict[str, list[tuple[ast.Call, tuple[str, ...]]]] = field(
        default_factory=dict
    )  # method name -> [(call, held)]


class _LockWalker:
    """Collect lock facts for one function."""

    def __init__(
        self,
        func: FunctionInfo,
        class_locks: ClassLocks | None,
    ) -> None:
        self.func = func
        self.class_locks = class_locks
        self.facts = _FuncFacts(func=func)

    # -- classification -------------------------------------------------

    def _classify(self, expr: ast.expr) -> str | None:
        attr = _self_attr(expr)
        if attr is not None and self.class_locks is not None:
            canon = self.class_locks.canonical(attr)
            if canon is not None:
                return canon
        try:
            text = ast.unparse(expr)
        except Exception:  # pragma: no cover
            return None
        if _LOCKISH_RE.search(text):
            # heuristic: index-insensitive so locks[a]/locks[b] unify
            text = re.sub(r"\[[^]]*\]", "[]", text)
            owner = (
                f"{self.func.module.name}.{self.func.class_name}"
                if self.func.class_name
                else self.func.module.name
            )
            return f"{owner}:{text}"
        return None

    # -- traversal ------------------------------------------------------

    def run(self) -> _FuncFacts:
        for stmt in self.func.node.body:
            self._visit(stmt, (), frozenset())
        return self.facts

    def _record_write(
        self, attr: str, held: tuple[str, ...], node: ast.AST
    ) -> None:
        self.facts.writes.append(
            LockWrite(
                attr=attr,
                held=frozenset(held),
                func=self.func,
                node=node,
            )
        )

    def _write_targets(self, target: ast.expr, held, node) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._write_targets(elt, held, node)
            return
        attr = _self_attr(target)
        if attr is not None:
            self._record_write(attr, held, node)
            return
        if isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)
            if attr is not None:
                self._record_write(attr, held, node)

    def _visit(
        self,
        node: ast.AST,
        held: tuple[str, ...],
        held_exprs: frozenset[str],
    ) -> None:
        if isinstance(node, _SCOPE_NODES):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            new_held = held
            new_exprs = held_exprs
            for item in node.items:
                self._visit(item.context_expr, held, held_exprs)
                lock_id = self._classify(item.context_expr)
                if lock_id is None:
                    continue
                for outer in new_held:
                    if outer != lock_id:
                        self.facts.order_edges.append(
                            LockOrderEdge(
                                first=outer,
                                second=lock_id,
                                func=self.func,
                                node=item.context_expr,
                            )
                        )
                if lock_id not in new_held:
                    new_held = new_held + (lock_id,)
                try:
                    new_exprs = new_exprs | {
                        ast.unparse(item.context_expr)
                    }
                except Exception:  # pragma: no cover
                    pass
            for child in node.body:
                self._visit(child, new_held, new_exprs)
            return
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                self._write_targets(tgt, held, node)
        elif isinstance(node, ast.AugAssign):
            self._write_targets(node.target, held, node)
        elif isinstance(node, ast.Call):
            self.facts.calls.append(
                LockedCall(
                    node=node,
                    held=held,
                    held_exprs=held_exprs,
                    func=self.func,
                )
            )
            f = node.func
            if isinstance(f, ast.Attribute):
                # self.X.append(...) mutates self.X
                if f.attr in _MUTATORS:
                    attr = _self_attr(f.value)
                    if attr is not None:
                        self._record_write(attr, held, node)
                # intra-class self.m(...) call, for held propagation
                if _self_attr(f) is not None:
                    self.facts.self_calls.setdefault(f.attr, []).append(
                        (node, held)
                    )
        for child in ast.iter_child_nodes(node):
            self._visit(child, held, held_exprs)


# ----------------------------------------------------------------------
# blocking-call predicate


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _is_str_join(node: ast.Call) -> bool:
    """``", ".join(xs)`` — a string method, not a thread join."""
    if not isinstance(node.func, ast.Attribute):
        return False
    if isinstance(node.func.value, (ast.Constant, ast.JoinedStr)):
        return True
    # thread/process join takes no positional args (or only a timeout
    # keyword); str.join always takes exactly one positional iterable.
    return len(node.args) == 1


def _is_comm_yield(node: ast.Call, func: FunctionInfo) -> bool:
    parent = func.module.parent_of(node)
    return isinstance(parent, (ast.YieldFrom, ast.Await))


def _blocking_op(
    call: ast.Call, func: FunctionInfo, ops: frozenset[str]
) -> str | None:
    name = _call_name(call)
    if name not in ops:
        return None
    if name == "join" and _is_str_join(call):  # pragma: no cover - safety
        return None
    if _is_comm_yield(call, func):
        return None  # simulated comm op, not thread-blocking I/O
    return name


def _direct_blocking(func: FunctionInfo) -> list[tuple[ast.Call, str]]:
    out: list[tuple[ast.Call, str]] = []
    for node in func.body_nodes():
        if isinstance(node, ast.Call):
            op = _blocking_op(node, func, _CLOSURE_BLOCKING)
            if op is not None and op != "wait":
                out.append((node, op))
    return out


# ----------------------------------------------------------------------
# the pass


def _finding(
    func: FunctionInfo, node: ast.AST, code: str, message: str
) -> Finding:
    return func.module.finding(node, code, message, func.qname)


def _short(lock_id: str) -> str:
    return lock_id.rsplit(".", 1)[-1] if ":" not in lock_id else lock_id.split(":", 1)[-1]


@dataclass
class _LockFacts:
    """What the lock walk found, shared by RPR014 and RPR015."""

    class_locks: dict[str, ClassLocks]
    facts: dict[str, _FuncFacts]
    by_class: dict[tuple[str, str], list[_FuncFacts]]
    #: Locks a private method holds at every intra-class call site.
    held_bonus: dict[str, frozenset[str]]

    def eff_held(self, fx: _FuncFacts, held) -> frozenset[str]:
        return frozenset(held) | self.held_bonus.get(
            fx.func.qname, frozenset()
        )


def _lock_facts(program: Program) -> _LockFacts:
    """Walk every function once per program (both lock rules read it)."""
    if program.lock_facts is not None:
        return program.lock_facts
    class_locks = _discover_class_locks(program)
    facts: dict[str, _FuncFacts] = {}
    for func in program.functions.values():
        cq = (
            f"{func.module.name}.{func.class_name}"
            if func.class_name
            else None
        )
        walker = _LockWalker(func, class_locks.get(cq) if cq else None)
        facts[func.qname] = walker.run()

    # -- lock-held propagation into private methods ---------------------
    # A method whose intra-class call sites *all* hold a common lock is
    # analyzed as holding it (covers "_insert is only called under
    # _lock" contracts).  Two rounds settle call chains.
    held_bonus: dict[str, frozenset[str]] = {}
    by_class: dict[tuple[str, str], list[_FuncFacts]] = {}
    for fx in facts.values():
        if fx.func.class_name:
            by_class.setdefault(
                (fx.func.module.name, fx.func.class_name), []
            ).append(fx)
    for _round in range(2):
        for (mod_name, cls_name), members in by_class.items():
            for target in members:
                m = target.func.name
                if not m.startswith("_") or m.startswith("__"):
                    continue
                sites: list[frozenset[str]] = []
                for fx in members:
                    for node, held in fx.self_calls.get(m, []):
                        eff = frozenset(held) | held_bonus.get(
                            fx.func.qname, frozenset()
                        )
                        sites.append(eff)
                if sites and all(sites):
                    common = frozenset.intersection(*sites)
                    if common:
                        held_bonus[target.func.qname] = (
                            held_bonus.get(target.func.qname, frozenset())
                            | common
                        )
    program.lock_facts = _LockFacts(class_locks, facts, by_class, held_bonus)
    return program.lock_facts


@register
class InconsistentLockDiscipline(Rule):
    code = "RPR014"
    name = "inconsistent-lock-discipline"
    summary = (
        "attribute written both with and without a lock held, or two "
        "locks acquired in opposite orders"
    )
    rationale = (
        "A shared attribute written under a lock in one method and "
        "bare in another gives readers a torn-read/lost-update window "
        "that shows up only under production interleavings.  Two locks "
        "taken in opposite orders on different paths (ABBA) deadlock "
        "the first time the schedules overlap.  Both need class-wide "
        "and cross-function views, hence the whole-program pass."
    )
    whole_program = True

    def check(self, program: Program) -> Iterator[Finding]:
        lf = _lock_facts(program)
        class_locks, facts, by_class = lf.class_locks, lf.facts, lf.by_class
        # -- RPR014a: mixed locked/unlocked writes --------------------------
        for (mod_name, cls_name), members in sorted(by_class.items()):
            cq = f"{mod_name}.{cls_name}"
            locks = class_locks.get(cq)
            lock_attr_names = set(locks.attrs) if locks else set()
            writes_by_attr: dict[str, list[tuple[LockWrite, frozenset[str]]]] = {}
            for fx in members:
                for w in fx.writes:
                    if w.attr in lock_attr_names:
                        continue
                    writes_by_attr.setdefault(w.attr, []).append(
                        (w, lf.eff_held(fx, w.held))
                    )
            for attr, entries in sorted(writes_by_attr.items()):
                canonical = {
                    lk
                    for _, held in entries
                    for lk in held
                    if ":" not in lk  # canonical only — heuristics too fuzzy
                }
                if not canonical:
                    continue
                locked = [
                    (w, h)
                    for w, h in entries
                    if h & canonical
                ]
                unlocked = [
                    (w, h)
                    for w, h in entries
                    if not h and w.func.name != "__init__"
                ]
                if not locked or not unlocked:
                    continue
                lock_names = ", ".join(sorted(_short(c) for c in canonical))
                locked_in = sorted({w.func.name for w, _ in locked})
                seen_funcs: set[str] = set()
                for w, _h in sorted(
                    unlocked, key=lambda e: (e[0].func.qname, e[0].node.lineno)
                ):
                    if w.func.qname in seen_funcs:
                        continue
                    seen_funcs.add(w.func.qname)
                    yield _finding(
                        w.func,
                        w.node,
                        "RPR014",
                        f"attribute 'self.{attr}' is written without a lock "
                        f"here but under '{lock_names}' in "
                        f"{', '.join(locked_in)}(); concurrent threads can "
                        "tear or lose this update",
                    )

        # -- RPR014b: inconsistent lock-acquisition order -------------------
        edges: dict[tuple[str, str], list[LockOrderEdge]] = {}
        for fx in facts.values():
            for e in fx.order_edges:
                edges.setdefault((e.first, e.second), []).append(e)
        reported: set[frozenset[str]] = set()
        for (a, b), sites in sorted(edges.items()):
            pair = frozenset((a, b))
            if pair in reported or (b, a) not in edges:
                continue
            reported.add(pair)
            other = edges[(b, a)]
            e = min(sites, key=lambda e: (e.func.module.rel, e.node.lineno))
            o = min(other, key=lambda e: (e.func.module.rel, e.node.lineno))
            yield _finding(
                e.func,
                e.node,
                "RPR014",
                f"lock '{_short(b)}' is acquired while holding "
                f"'{_short(a)}' here, but {o.func.qname}() acquires them in "
                "the opposite order; the two paths can deadlock (ABBA)",
            )


@register
class BlockingCallUnderLock(Rule):
    code = "RPR015"
    name = "blocking-call-under-lock"
    summary = (
        "blocking socket/pipe/disk call (or sleep/join) made while "
        "holding a lock"
    )
    rationale = (
        "I/O under a lock serializes every contending thread behind "
        "the slowest disk or peer, and wedges the process outright if "
        "the I/O's completion depends on a thread that needs the lock. "
        "Condition-variable waits on the held condition itself are "
        "exempt (wait releases the lock); calls into helpers that "
        "perform I/O are traced two levels through the call graph."
    )
    whole_program = True

    def check(self, program: Program) -> Iterator[Finding]:
        lf = _lock_facts(program)
        facts, held_bonus = lf.facts, lf.held_bonus
        # -- RPR015: blocking calls under a lock ----------------------------
        direct_map: dict[str, list[tuple[ast.Call, str]]] = {
            qn: _direct_blocking(fn) for qn, fn in program.functions.items()
        }
        # one propagation round: callee-of-callee blocking surfaces too
        closure_map: dict[str, list[tuple[str, str]]] = {}
        for qn, fn in program.functions.items():
            entries: list[tuple[str, str]] = []
            for site in program.calls.get(qn, []):
                f3 = site.node.func
                if not (
                    isinstance(f3, ast.Name)
                    or (
                        isinstance(f3, ast.Attribute)
                        and _self_attr(f3) is not None
                    )
                ):
                    continue  # same confidence bar as the direct step
                for callee in site.callees:
                    for _node, op in direct_map.get(callee, []):
                        entries.append((callee, op))
            closure_map[qn] = entries

        for qn in sorted(facts):
            fx = facts[qn]
            for call in fx.calls:
                held = tuple(
                    dict.fromkeys(
                        tuple(call.held)
                        + tuple(sorted(held_bonus.get(qn, frozenset())))
                    )
                )
                if not held:
                    continue
                name = _call_name(call.node)
                if (
                    name in ("wait", "wait_for")
                    and isinstance(call.node.func, ast.Attribute)
                ):
                    try:
                        recv = ast.unparse(call.node.func.value)
                    except Exception:  # pragma: no cover
                        recv = ""
                    if recv in call.held_exprs:
                        continue  # cv.wait() releases the lock it waits on
                lock_txt = ", ".join(_short(h) for h in held)
                op = _blocking_op(call.node, fx.func, _BLOCKING_CALLS)
                if op == "join" and _is_str_join(call.node):
                    op = None
                if op is not None:
                    yield _finding(
                        fx.func,
                        call.node,
                        "RPR015",
                        f"blocking '{op}()' while holding lock "
                        f"[{lock_txt}]; every thread contending on the "
                        "lock stalls behind this I/O",
                    )
                    continue
                site = program.call_at(call.node)
                if site is None:
                    continue
                # Only follow high-confidence edges: self.method() and bare
                # f() calls.  obj.method() edges are name-matched and too
                # often link look-alike APIs (queue.put vs cache.put); the
                # callee's own body is still analyzed in its own right.
                f2 = call.node.func
                confident = isinstance(f2, ast.Name) or (
                    isinstance(f2, ast.Attribute) and _self_attr(f2) is not None
                )
                if not confident:
                    continue
                for callee in site.callees:
                    blk = direct_map.get(callee, [])
                    if blk:
                        _n, op2 = blk[0]
                        yield _finding(
                            fx.func,
                            call.node,
                            "RPR015",
                            f"call to {callee}() while holding lock "
                            f"[{lock_txt}]: it performs blocking "
                            f"'{op2}()'",
                        )
                        break
                    deeper = closure_map.get(callee, [])
                    if deeper:
                        mid, op2 = deeper[0]
                        yield _finding(
                            fx.func,
                            call.node,
                            "RPR015",
                            f"call to {callee}() while holding lock "
                            f"[{lock_txt}]: it reaches blocking "
                            f"'{op2}()' via {mid}()",
                        )
                        break
