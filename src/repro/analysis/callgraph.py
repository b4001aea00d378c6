"""Source loader and call-graph builder for ``repro check``.

Reads and parses every ``.py`` file under the given paths exactly once.
Each becomes a :class:`ModuleInfo` — the one view of a file every rule
sees (source lines and ``# noqa`` waivers, path scoping, AST, and for
linked modules constants, functions and comm sites).  The non-test
modules are then linked into a :class:`Program`: resolved integer
constants (including ``from x import TAG`` chains), functions keyed by
qualified name, and a name-resolved call graph.  Test modules get the
per-file rules only; linking them would change what rare-name call
edges and tag matching see on the code under test.

Resolution is deliberately heuristic — Python has no static dispatch —
but errs toward *under*-linking (an unresolvable callee is simply
absent from the graph) so downstream passes stay low-noise.

Callee resolution, in order of confidence:

* ``self.m(...)`` inside ``class C`` → ``module.C.m`` when it exists;
* bare ``f(...)`` → same-module function, else the target of a
  ``from ... import f``;
* ``obj.m(...)`` → every in-program function named ``m``, but only when
  that name is rare (``<= _MAX_NAME_CANDIDATES`` definitions) — common
  method names like ``get`` are too ambiguous to link.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.analysis.model import CommSite, CommSummary, Finding

#: Packages whose code runs on (or drives) the deterministic simulated
#: machine: wall-clock reads, unseeded RNG and hash-order iteration in
#: these trees can silently break bit-reproducibility.
DETERMINISTIC_PACKAGES = frozenset(
    {"machine", "solver", "connectivity", "resilience", "core"}
)

#: Modules allowed to define/handle raw integer tags: the tag-space
#: authority (reserved collective tags, wildcard sentinels) lives here.
TAG_CONSTANT_MODULES = ("machine/simmpi.py", "machine/event.py")

#: Skip name-based (``obj.m``) edges when more functions than this share
#: the bare name — the edge would be noise, not signal.
_MAX_NAME_CANDIDATES = 6

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)

_NOQA_RE = re.compile(
    r"#\s*noqa(?P<codes>:\s*[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)?",
    re.IGNORECASE,
)


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _noqa_codes(line: str) -> set[str] | None:
    """Codes waived on this physical line.

    Returns ``None`` when there is no ``noqa`` comment, the empty set
    for a bare ``# noqa`` (waives everything), else the explicit codes.
    """
    m = _NOQA_RE.search(line)
    if m is None:
        return None
    codes = m.group("codes")
    if not codes:
        return set()
    return {c.strip().upper() for c in codes.lstrip(":").split(",")}


def local_walk(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s subtree, *excluding* nested function/class scopes."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(node))


@dataclass
class FunctionInfo:
    """One function or method in the analyzed program."""

    qname: str  # "pkg.mod.Class.name" or "pkg.mod.name"
    name: str
    module: "ModuleInfo"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None

    def body_nodes(self) -> Iterator[ast.AST]:
        return local_walk(self.node)

    def enclosing_loop(self, node: ast.AST) -> ast.AST | None:
        """The innermost loop of this function around ``node``, if any."""
        for anc in self.module.ancestors(node):
            if anc is self.node:
                return None
            if isinstance(anc, (ast.For, ast.AsyncFor, ast.While)):
                return anc
        return None


@dataclass
class CallSite:
    """One call expression with its candidate callees."""

    caller: FunctionInfo
    node: ast.Call
    callees: tuple[str, ...]
    in_loop: bool


@dataclass
class ModuleInfo:
    """One parsed source file: everything a rule may inspect about it."""

    path: Path
    rel: str
    name: str  # dotted, e.g. "repro.serve.cache"
    tree: ast.Module
    source: str
    lines: list[str] = field(init=False)
    #: Under a directory literally named ``tests`` (repo test tree).
    in_tests: bool = field(init=False)
    #: Inside one of the bit-determinism-critical packages.
    in_deterministic_path: bool = field(init=False)
    #: One of the modules that *define* the tag space.
    is_tag_module: bool = field(init=False)
    # -- filled for linked (non-test) modules only ----------------------
    constants: dict[str, int] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)  # alias -> dotted
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    parent: dict[int, ast.AST] = field(default_factory=dict)  # id(node) -> parent
    comm_sites: list[CommSite] = field(default_factory=list)
    _raw_consts: dict[str, ast.expr] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.lines = self.source.splitlines()
        parts = Path(self.rel).parts
        self.in_tests = "tests" in parts
        self.in_deterministic_path = any(
            p in DETERMINISTIC_PACKAGES for p in parts
        )
        self.is_tag_module = self.rel.endswith(TAG_CONSTANT_MODULES)

    def parent_of(self, node: ast.AST) -> ast.AST | None:
        return self.parent.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parent_of(node)
        while cur is not None:
            yield cur
            cur = self.parent_of(cur)

    def finding(
        self, node: ast.AST, code: str, message: str, function: str = ""
    ) -> Finding:
        return Finding(
            path=self.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
            function=function,
        )

    def waives(self, line: int, code: str) -> bool:
        """Does a ``# noqa`` comment on ``line`` waive ``code``?"""
        text = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        waived = _noqa_codes(text)
        return waived is not None and (not waived or code in waived)


@dataclass
class Program:
    """Every loaded input, and the program linked from the non-test ones."""

    root: Path
    #: Every parsed input file, test modules included (per-file rules).
    files: list[ModuleInfo] = field(default_factory=list)
    #: ``RPR000`` findings for inputs that could not be read or parsed.
    parse_errors: list[Finding] = field(default_factory=list)
    #: The linked program: non-test modules by dotted name.
    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    by_name: dict[str, list[FunctionInfo]] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)  # dotted full
    calls: dict[str, list[CallSite]] = field(default_factory=dict)
    callers: dict[str, list[CallSite]] = field(default_factory=dict)
    #: Comm sites of the linked program (``summary.extract_summary``).
    summary: CommSummary = field(default_factory=CommSummary)
    #: Memo of the lock walk (``locks._lock_facts``; RPR014/015 share it).
    lock_facts: Any = None
    _site_index: dict[int, CallSite] = field(default_factory=dict)

    # -- lookups --------------------------------------------------------

    def call_at(self, node: ast.AST) -> CallSite | None:
        return self._site_index.get(id(node))

    def lookup_constant(self, dotted: str) -> int | None:
        """Resolve a dotted constant name, matching by suffix."""
        if dotted in self.constants:
            return self.constants[dotted]
        hits = {
            v
            for k, v in self.constants.items()
            if k.endswith("." + dotted)
        }
        return hits.pop() if len(hits) == 1 else None

    def functions_named(self, name: str) -> list[FunctionInfo]:
        return self.by_name.get(name, [])


# ----------------------------------------------------------------------
# loading


def _module_name(rel: str) -> str:
    parts = list(Path(rel).with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "module"


def relative_path(path: Path, root: Path) -> str:
    try:
        rel = path.resolve().relative_to(root)
    except ValueError:
        rel = path
    return str(rel).replace("\\", "/")


def iter_py_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` once, directories sorted."""
    seen: set[Path] = set()
    for p in paths:
        p = Path(p)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            r = f.resolve()
            if r not in seen:
                seen.add(r)
                yield f


def parse_module(path: Path, rel: str, source: str) -> ModuleInfo:
    """The per-file view of ``source``; raises what ``ast.parse`` does."""
    return ModuleInfo(
        path=path,
        rel=rel,
        name=_module_name(rel),
        tree=ast.parse(source, filename=str(path)),
        source=source,
    )


def _collect_imports(mod: ModuleInfo) -> None:
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                mod.imports[local] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Resolve "from .sibling import x" against this module's
                # package so constant lookups can follow the chain.
                pkg_parts = mod.name.split(".")[: -node.level]
                base = ".".join(pkg_parts + ([node.module] if node.module else []))
            for alias in node.names:
                local = alias.asname or alias.name
                mod.imports[local] = f"{base}.{alias.name}" if base else alias.name


def _collect_raw_constants(mod: ModuleInfo) -> None:
    for node in mod.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            tgt = node.targets[0]
            if isinstance(tgt, ast.Name):
                mod._raw_consts[tgt.id] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                mod._raw_consts[node.target.id] = node.value


def _eval_const(
    expr: ast.expr, mod: ModuleInfo, program: Program
) -> int | None:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
        # bool is an int subclass; True/False are not tags.
        return None if isinstance(expr.value, bool) else expr.value
    if isinstance(expr, ast.Name):
        if expr.id in mod.constants:
            return mod.constants[expr.id]
        target = mod.imports.get(expr.id)
        if target is not None:
            return program.lookup_constant(target)
        return None
    if isinstance(expr, ast.Attribute):
        dotted = dotted_name(expr)
        return program.lookup_constant(dotted) if dotted else None
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
        v = _eval_const(expr.operand, mod, program)
        return -v if v is not None else None
    if isinstance(expr, ast.BinOp):
        left = _eval_const(expr.left, mod, program)
        right = _eval_const(expr.right, mod, program)
        if left is None or right is None:
            return None
        if isinstance(expr.op, ast.Add):
            return left + right
        if isinstance(expr.op, ast.Sub):
            return left - right
        if isinstance(expr.op, ast.Mult):
            return left * right
        if isinstance(expr.op, ast.FloorDiv) and right != 0:
            return left // right
        if isinstance(expr.op, ast.LShift):
            return left << right
    return None


def resolve_int(
    expr: ast.expr, func: FunctionInfo, program: Program
) -> int | None:
    """Resolve an arbitrary in-function expression to an int constant."""
    return _eval_const(expr, func.module, program)


def _collect_functions(mod: ModuleInfo, program: Program) -> None:
    def add(node: ast.FunctionDef | ast.AsyncFunctionDef, cls: str | None):
        qname = (
            f"{mod.name}.{cls}.{node.name}" if cls else f"{mod.name}.{node.name}"
        )
        info = FunctionInfo(
            qname=qname, name=node.name, module=mod, node=node, class_name=cls
        )
        mod.functions[qname] = info
        program.functions[qname] = info
        program.by_name.setdefault(node.name, []).append(info)

    for node in mod.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(node, None)
        elif isinstance(node, ast.ClassDef):
            mod.classes[node.name] = node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(item, node.name)
            # nested defs inside methods are rare rank-program closures;
            # record them too so comm sites inside them are attributed.
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for sub in ast.walk(item):
                        if (
                            isinstance(
                                sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                            )
                            and sub is not item
                        ):
                            qn = f"{mod.name}.{node.name}.{item.name}.{sub.name}"
                            info = FunctionInfo(
                                qname=qn,
                                name=sub.name,
                                module=mod,
                                node=sub,
                                class_name=node.name,
                            )
                            mod.functions[qn] = info
                            program.functions[qn] = info
                            program.by_name.setdefault(sub.name, []).append(
                                info
                            )
    # module-level nested closures (rank programs defined inside funcs)
    for node in mod.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if (
                    isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and sub is not node
                ):
                    qn = f"{mod.name}.{node.name}.{sub.name}"
                    if qn not in mod.functions:
                        info = FunctionInfo(
                            qname=qn, name=sub.name, module=mod, node=sub
                        )
                        mod.functions[qn] = info
                        program.functions[qn] = info
                        program.by_name.setdefault(sub.name, []).append(info)


def _resolve_callees(
    call: ast.Call, func: FunctionInfo, program: Program
) -> tuple[str, ...]:
    mod = func.module
    f = call.func
    out: list[str] = []
    if isinstance(f, ast.Name):
        # same-module function / class constructor / imported function
        cand = f"{mod.name}.{f.id}"
        if cand in program.functions:
            out.append(cand)
        elif f.id in mod.classes:
            init = f"{mod.name}.{f.id}.__init__"
            if init in program.functions:
                out.append(init)
        else:
            target = mod.imports.get(f.id)
            if target is not None:
                for fn in program.functions_named(target.rsplit(".", 1)[-1]):
                    if fn.qname == target or fn.qname.endswith("." + target):
                        out.append(fn.qname)
                if not out and target in program.modules:
                    pass  # module import, not a call target
                # imported class constructor
                if not out:
                    init_owner = target.rsplit(".", 1)[-1]
                    for fn in program.functions_named("__init__"):
                        if fn.class_name == init_owner and (
                            fn.qname == f"{target}.__init__"
                            or fn.qname.endswith(f".{target}.__init__")
                        ):
                            out.append(fn.qname)
    elif isinstance(f, ast.Attribute):
        if isinstance(f.value, ast.Name) and f.value.id == "self":
            if func.class_name:
                cand = f"{mod.name}.{func.class_name}.{f.attr}"
                if cand in program.functions:
                    return (cand,)
        named = program.functions_named(f.attr)
        if 0 < len(named) <= _MAX_NAME_CANDIDATES:
            out.extend(fn.qname for fn in named if fn.qname != func.qname)
    return tuple(dict.fromkeys(out))


def _collect_calls(mod: ModuleInfo, program: Program) -> None:
    for func in mod.functions.values():
        sites: list[CallSite] = []
        for node in func.body_nodes():
            if isinstance(node, ast.Call):
                callees = _resolve_callees(node, func, program)
                site = CallSite(
                    caller=func,
                    node=node,
                    callees=callees,
                    in_loop=func.enclosing_loop(node) is not None,
                )
                sites.append(site)
                program._site_index[id(node)] = site
                for qn in callees:
                    program.callers.setdefault(qn, []).append(site)
        program.calls[func.qname] = sites


def load_program(
    paths: Iterable[str | Path], root: Path | None = None
) -> Program:
    """Read and parse every ``.py`` under ``paths`` once; link the
    non-test modules into the :class:`Program`.

    A file that cannot be decoded or parsed becomes an ``RPR000``
    finding in ``parse_errors`` and the other files are still loaded.
    """
    root = (root or Path.cwd()).resolve()
    program = Program(root=root)
    mods: list[ModuleInfo] = []
    for path in iter_py_files(paths):
        rel = relative_path(path, root)
        try:
            mod = parse_module(path, rel, path.read_text(encoding="utf-8"))
        except SyntaxError as exc:
            program.parse_errors.append(
                Finding(
                    rel, exc.lineno or 1, exc.offset or 0, "RPR000",
                    f"syntax error: {exc.msg}",
                )
            )
            continue
        except ValueError as exc:  # not UTF-8, or NUL bytes in the source
            program.parse_errors.append(
                Finding(rel, 1, 0, "RPR000", f"unreadable source: {exc}")
            )
            continue
        program.files.append(mod)
        if mod.in_tests:
            continue
        for parent in ast.walk(mod.tree):
            for child in ast.iter_child_nodes(parent):
                mod.parent[id(child)] = parent
        _collect_imports(mod)
        _collect_raw_constants(mod)
        mods.append(mod)
        program.modules[mod.name] = mod
    # two-phase constant resolution so cross-module chains settle
    for mod in mods:
        _collect_functions(mod, program)
    for _ in range(4):
        changed = False
        for mod in mods:
            for name, expr in mod._raw_consts.items():
                if name in mod.constants:
                    continue
                v = _eval_const(expr, mod, program)
                if v is not None:
                    mod.constants[name] = v
                    program.constants[f"{mod.name}.{name}"] = v
                    changed = True
        if not changed:
            break
    for mod in mods:
        _collect_calls(mod, program)
    return program
