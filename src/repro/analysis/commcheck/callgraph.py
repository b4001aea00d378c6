"""Program loader and call-graph builder for ``repro check``.

Parses every ``.py`` file under the given paths into a :class:`Program`:
modules with resolved integer constants (including ``from x import TAG``
chains), functions keyed by qualified name, and a name-resolved call
graph.  Resolution is deliberately heuristic — Python has no static
dispatch — but errs toward *under*-linking (an unresolvable callee is
simply absent from the graph) so downstream passes stay low-noise.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.lint import _iter_py_files, dotted_name

#: Skip name-based (``obj.m``) edges when more functions than this share
#: the bare name — the edge would be noise, not signal.
_MAX_NAME_CANDIDATES = 6

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


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


@dataclass
class CallSite:
    """One call expression with its candidate callees."""

    caller: FunctionInfo
    node: ast.Call
    callees: tuple[str, ...]
    in_loop: bool


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path
    rel: str
    name: str  # dotted, e.g. "repro.serve.cache"
    tree: ast.Module
    source: str
    lines: list[str] = field(default_factory=list)
    constants: dict[str, int] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)  # alias -> dotted
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    parent: dict[int, ast.AST] = field(default_factory=dict)  # id(node) -> parent
    _raw_consts: dict[str, ast.expr] = field(default_factory=dict)

    def parent_of(self, node: ast.AST) -> ast.AST | None:
        return self.parent.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parent_of(node)
        while cur is not None:
            yield cur
            cur = self.parent_of(cur)


@dataclass
class Program:
    """The whole analyzed program."""

    root: Path
    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    by_name: dict[str, list[FunctionInfo]] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)  # dotted full
    calls: dict[str, list[CallSite]] = field(default_factory=dict)
    callers: dict[str, list[CallSite]] = field(default_factory=dict)
    parse_errors: list[tuple[str, int, str]] = field(default_factory=list)
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


def _relative(path: Path, root: Path) -> str:
    try:
        return str(path.resolve().relative_to(root.resolve())).replace(
            "\\", "/"
        )
    except ValueError:
        return str(path).replace("\\", "/")


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


def _in_loop(func: FunctionInfo, node: ast.AST) -> bool:
    mod = func.module
    for anc in mod.ancestors(node):
        if anc is func.node:
            return False
        if isinstance(anc, (ast.For, ast.AsyncFor, ast.While)):
            return True
    return False


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
                    in_loop=_in_loop(func, node),
                )
                sites.append(site)
                program._site_index[id(node)] = site
                for qn in callees:
                    program.callers.setdefault(qn, []).append(site)
        program.calls[func.qname] = sites


def load_program(
    paths: Iterable[str | Path], root: Path | None = None
) -> Program:
    """Parse every ``.py`` under ``paths`` into a linked :class:`Program`."""
    root = (root or Path.cwd()).resolve()
    program = Program(root=root)
    mods: list[ModuleInfo] = []
    for path in _iter_py_files(paths):
        rel = _relative(path, root)
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            program.parse_errors.append((rel, exc.lineno or 1, exc.msg or ""))
            continue
        mod = ModuleInfo(
            path=path,
            rel=rel,
            name=_module_name(rel),
            tree=tree,
            source=source,
            lines=source.splitlines(),
        )
        for parent in ast.walk(tree):
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
