"""Auto-fixes for mechanically-correctable rules (``repro check --fix``).

Today one fix exists: RPR007 (hash-order iteration in a deterministic
path).  Its repair is purely local and semantics-preserving for loop
iteration: wrap the offending loop iterable in ``sorted(...)``, turning

    for g in set(donors) | set(receivers):

into

    for g in sorted(set(donors) | set(receivers)):

The rewrite operates on the *byte* representation of the source using
the AST's ``col_offset``/``end_col_offset`` (which are UTF-8 byte
offsets), so non-ASCII source survives untouched.  Edits are applied
bottom-up so earlier spans stay valid.  Only findings the rule would
actually report are touched: test trees and non-deterministic packages
are left alone, and ``# noqa``-waived lines are respected — a waiver is
an explicit human decision the fixer must not override.

The fix is idempotent: a ``sorted(...)``-wrapped iterable no longer
matches the rule, so a second pass is a no-op (pinned by the fixture
tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.callgraph import (
    ModuleInfo,
    relative_path,
    iter_py_files,
    parse_module,
)
from repro.analysis.rules import HashOrderIteration

__all__ = ["FixResult", "fix_rpr007_source", "fix_paths"]


@dataclass
class FixResult:
    """Outcome of one ``--fix`` pass."""

    #: ``{relative path: number of rewrites}`` for every changed file.
    changed: dict[str, int] = field(default_factory=dict)
    files_checked: int = 0

    @property
    def fixes(self) -> int:
        return sum(self.changed.values())

    def format(self) -> str:
        lines = [
            f"{path}: rewrote {n} loop iterable(s) with sorted(...)"
            for path, n in sorted(self.changed.items())
        ]
        lines.append(
            f"fixed {self.fixes} RPR007 finding(s) in "
            f"{len(self.changed)} file(s) "
            f"({self.files_checked} checked)"
        )
        return "\n".join(lines)


def _fixable_iter_spans(
    mod: ModuleInfo,
) -> list[tuple[int, int, int, int]]:
    """(lineno, col, end_lineno, end_col) of every RPR007 loop iterable.

    Exactly the loops :class:`HashOrderIteration` reports — same node
    filter, same scoping — minus those a ``# noqa`` on the loop's header
    line waives.
    """
    rule = HashOrderIteration()
    if not rule.applies(mod):
        return []
    return [
        (
            loop.iter.lineno,
            loop.iter.col_offset,
            loop.iter.end_lineno,
            loop.iter.end_col_offset,
        )
        for loop, _kind in rule.loops(mod)
        if not mod.waives(loop.lineno, rule.code)  # human said no
    ]


def fix_rpr007_source(source: str, rel: str = "<string>") -> tuple[str, int]:
    """Rewrite RPR007 loop iterables in ``source``; returns
    ``(new_source, rewrites)``.

    ``rel`` is the repo-relative path used for rule scoping (the rule
    only applies inside the deterministic packages).
    """
    try:
        mod = parse_module(Path(rel), rel, source)
    except (SyntaxError, ValueError):
        return source, 0  # unparseable files are the checker's problem
    spans = _fixable_iter_spans(mod)
    if not spans:
        return source, 0

    # Byte-offset arithmetic: ast columns are UTF-8 byte offsets.
    data = source.encode("utf-8")
    line_start = []
    off = 0
    for ln in source.splitlines(keepends=True):
        line_start.append(off)
        off += len(ln.encode("utf-8"))

    def abs_off(lineno: int, col: int) -> int:
        return line_start[lineno - 1] + col

    # Bottom-up (descending start offset) so earlier spans stay valid.
    edits = sorted(
        (abs_off(l0, c0), abs_off(l1, c1)) for l0, c0, l1, c1 in spans
    )
    for start, end in reversed(edits):
        data = data[:end] + b")" + data[end:]
        data = data[:start] + b"sorted(" + data[start:]
    return data.decode("utf-8"), len(edits)


def fix_paths(
    paths: Iterable[str | Path], root: Path | None = None
) -> FixResult:
    """Apply the RPR007 fix to every ``.py`` file under ``paths``.

    Files are rewritten in place only when something changed; the
    result maps changed paths to rewrite counts.
    """
    result = FixResult()
    base = (root or Path.cwd()).resolve()
    for f in iter_py_files(paths):
        result.files_checked += 1
        rel = relative_path(f, base)
        try:
            source = f.read_text(encoding="utf-8")
        except ValueError:
            continue  # not UTF-8: the check that follows reports RPR000
        fixed, n = fix_rpr007_source(source, rel)
        if n:
            f.write_text(fixed, encoding="utf-8")
            result.changed[rel] = n
    return result
