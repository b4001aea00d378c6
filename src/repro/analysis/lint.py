"""Project-specific AST lint engine (``repro lint``).

Off-the-shelf linters know nothing about the invariants this codebase
lives and dies by: reserved message-tag spaces, bit-deterministic
scheduler/solver/connectivity paths, and typed failure exceptions that
must never be swallowed.  This module is a small, dependency-free rule
engine for exactly those invariants:

* every rule has a stable code (``RPR001`` ...), a one-line summary and
  a documented rationale (see :mod:`repro.analysis.rules` and
  ``docs/static-analysis.md``);
* findings can be waived inline with ``# noqa: RPRxxx`` (a bare
  ``# noqa`` waives every rule on that line) — waivers are counted and
  reported, never silent;
* output is human-readable (``path:line:col CODE message``) or JSON
  (``--format json``) for CI consumption;
* the engine is a single :class:`ast` walk per rule over each file —
  linting the whole of ``src/`` takes well under a second.

Adding a rule is three steps: subclass :class:`Rule` in
``repro/analysis/rules.py``, decorate it with :func:`register`, add a
fixture test in ``tests/analysis/test_lint_rules.py``.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "LintContext",
    "LintReport",
    "Rule",
    "register",
    "iter_rules",
    "rule_catalog",
    "lint_paths",
    "DETERMINISTIC_PACKAGES",
    "TAG_CONSTANT_MODULES",
]

#: Packages whose code runs on (or drives) the deterministic simulated
#: machine: wall-clock reads, unseeded RNG and hash-order iteration in
#: these trees can silently break bit-reproducibility.
DETERMINISTIC_PACKAGES = frozenset(
    {"machine", "solver", "connectivity", "resilience", "core"}
)

#: Modules allowed to define/handle raw integer tags: the tag-space
#: authority (reserved collective tags, wildcard sentinels) lives here.
TAG_CONSTANT_MODULES = ("machine/simmpi.py", "machine/event.py")


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


def literal_patterns(
    expr: ast.AST | None,
) -> list[tuple[ast.expr, ast.expr]]:
    """``(src, tag)`` expression pairs spelled out in a ``waitany``
    patterns argument; both arms of a conditional pattern count."""
    out = []
    for elt in getattr(expr, "elts", ()):
        arms = [elt.body, elt.orelse] if isinstance(elt, ast.IfExp) else [elt]
        for arm in arms:
            if isinstance(arm, (ast.Tuple, ast.List)) and len(arm.elts) == 2:
                out.append((arm.elts[0], arm.elts[1]))
    return out


_NOQA_RE = re.compile(
    r"#\s*noqa(?P<codes>:\s*[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)?",
    re.IGNORECASE,
)


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


class LintContext:
    """Everything a rule may inspect about one source file."""

    def __init__(self, path: Path, rel: str, source: str, tree: ast.AST):
        self.path = path
        self.rel = rel.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        parts = Path(self.rel).parts
        #: Under a directory literally named ``tests`` (repo test tree).
        self.in_tests = "tests" in parts
        #: Inside one of the bit-determinism-critical packages.
        self.in_deterministic_path = any(
            p in DETERMINISTIC_PACKAGES for p in parts
        )
        #: One of the modules that *define* the tag space.
        self.is_tag_module = any(
            self.rel.endswith(m) for m in TAG_CONSTANT_MODULES
        )

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return Finding(
            path=self.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`code` (``RPRnnn``), :attr:`name` (short
    kebab-case slug), :attr:`summary` (one line, shown in ``--list``)
    and :attr:`rationale` (why the invariant matters; surfaces in the
    docs), and implement :meth:`check`.
    """

    code: str = "RPR000"
    name: str = "abstract-rule"
    summary: str = ""
    rationale: str = ""

    def applies(self, ctx: LintContext) -> bool:
        """Whether this rule runs on ``ctx`` at all (path scoping)."""
        return True

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not re.fullmatch(r"RPR\d{3}", cls.code):
        raise ValueError(f"bad rule code {cls.code!r} on {cls.__name__}")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def iter_rules() -> list[Rule]:
    """Fresh instances of every registered rule, ordered by code."""
    _ensure_rules_loaded()
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def rule_catalog() -> list[dict]:
    """Rule metadata (code, name, summary, rationale) for docs/CLI."""
    return [
        {
            "code": r.code,
            "name": r.name,
            "summary": r.summary,
            "rationale": r.rationale,
        }
        for r in iter_rules()
    ]


def _ensure_rules_loaded() -> None:
    # The rules modules register themselves on import; import lazily to
    # avoid a hard cycle (rules import helpers from this module).  The
    # commcheck rules (RPR010+) share the registry but only run under
    # ``repro check`` — their ``applies`` is always false here.
    if not _REGISTRY:
        from repro.analysis import rules  # noqa: F401  (side-effect import)
        from repro.analysis.commcheck import rules as _commcheck_rules  # noqa: F401


# ----------------------------------------------------------------------
# engine


@dataclass
class LintReport:
    """Outcome of linting a set of paths."""

    findings: list[Finding]
    suppressed: list[Finding]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.code] = out.get(f.code, 0) + 1
        return out

    def format(self) -> str:
        lines = [f.format() for f in self.findings]
        by_code = ", ".join(
            f"{code} x{n}" for code, n in sorted(self.counts().items())
        )
        lines.append(
            f"{len(self.findings)} finding(s) "
            f"({by_code if by_code else 'none'}), "
            f"{len(self.suppressed)} waived by noqa, "
            f"{self.files_checked} file(s) checked"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "findings": [f.to_dict() for f in self.findings],
                "suppressed": [f.to_dict() for f in self.suppressed],
                "counts": self.counts(),
                "files_checked": self.files_checked,
                "ok": self.ok,
            },
            indent=2,
            sort_keys=True,
        )


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


def _iter_py_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    seen: set[Path] = set()
    for p in paths:
        p = Path(p)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            r = f.resolve()
            if r not in seen:
                seen.add(r)
                yield f


def _relative(path: Path, root: Path | None) -> str:
    base = root if root is not None else Path.cwd()
    try:
        return str(path.resolve().relative_to(base.resolve()))
    except ValueError:
        return str(path)


def lint_file(
    path: Path,
    rules: list[Rule] | None = None,
    root: Path | None = None,
) -> tuple[list[Finding], list[Finding]]:
    """Lint one file; returns ``(findings, suppressed)``."""
    if rules is None:
        rules = iter_rules()
    rel = _relative(path, root)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return (
            [
                Finding(
                    path=rel,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    code="RPR000",
                    message=f"syntax error: {exc.msg}",
                )
            ],
            [],
        )
    ctx = LintContext(path, rel, source, tree)
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for rule in rules:
        if not rule.applies(ctx):
            continue
        for f in rule.check(ctx):
            line = (
                ctx.lines[f.line - 1] if 0 < f.line <= len(ctx.lines) else ""
            )
            waived = _noqa_codes(line)
            if waived is not None and (not waived or f.code in waived):
                suppressed.append(f)
            else:
                findings.append(f)
    return sorted(findings), sorted(suppressed)


def lint_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    root: Path | None = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths``.

    ``select`` restricts to a subset of rule codes; unknown codes raise
    so CI misconfiguration fails loudly.
    """
    rules = iter_rules()
    if select is not None:
        want = {c.strip().upper() for c in select}
        known = {r.code for r in rules}
        unknown = want - known
        if unknown:
            raise ValueError(
                f"unknown rule code(s): {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        rules = [r for r in rules if r.code in want]
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    nfiles = 0
    for f in _iter_py_files(paths):
        nfiles += 1
        got, waived = lint_file(f, rules, root=root)
        findings.extend(got)
        suppressed.extend(waived)
    return LintReport(
        findings=sorted(findings),
        suppressed=sorted(suppressed),
        files_checked=nfiles,
    )
