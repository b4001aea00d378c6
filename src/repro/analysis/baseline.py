"""Checked-in suppression baseline for ``repro check``.

``analysis-baseline.json`` records *documented false positives*: each
entry must say which finding it waives (code + path + enclosing
function + a message substring) and **why** (a non-empty
``justification``).  Matching deliberately ignores line numbers so
entries survive unrelated edits; stale entries (matching nothing) are
detected and fail CI via ``repro check --baseline-check`` so the file
can only shrink when the underlying code is fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.model import Finding


class BaselineError(ValueError):
    """Malformed baseline file (bad JSON, missing fields)."""


@dataclass(frozen=True)
class BaselineEntry:
    """One waived finding."""

    code: str
    path: str
    justification: str
    function: str = ""
    contains: str = ""

    def matches(self, f: Finding) -> bool:
        if f.code != self.code or f.path != self.path:
            return False
        if self.function and f.function != self.function:
            return False
        if self.contains and self.contains not in f.message:
            return False
        return True

    def to_dict(self) -> dict:
        out = {
            "code": self.code,
            "path": self.path,
            "justification": self.justification,
        }
        if self.function:
            out["function"] = self.function
        if self.contains:
            out["contains"] = self.contains
        return out

    def describe(self) -> str:
        where = f" [{self.function}]" if self.function else ""
        what = f" ~'{self.contains}'" if self.contains else ""
        return f"{self.code} {self.path}{where}{what}"


def load_baseline(path: str | Path) -> list[BaselineEntry]:
    """Parse and validate a baseline file; a missing file is empty."""
    if not Path(path).is_file():
        return []
    raw = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BaselineError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(
        data.get("entries"), list
    ):
        raise BaselineError(f"{path}: expected {{'entries': [...]}}")
    entries: list[BaselineEntry] = []
    for i, item in enumerate(data["entries"]):
        if not isinstance(item, dict):
            raise BaselineError(f"{path}: entries[{i}] is not an object")
        for key in ("code", "path", "justification"):
            if not isinstance(item.get(key), str) or not item[key].strip():
                raise BaselineError(
                    f"{path}: entries[{i}] needs a non-empty '{key}' "
                    "string (every waiver must be justified)"
                )
        entries.append(
            BaselineEntry(
                code=item["code"],
                path=item["path"],
                justification=item["justification"],
                function=str(item.get("function", "")),
                contains=str(item.get("contains", "")),
            )
        )
    return entries


@dataclass
class BaselineResult:
    """Outcome of applying a baseline to a finding list."""

    kept: list[Finding] = field(default_factory=list)
    waived: list[tuple[Finding, BaselineEntry]] = field(
        default_factory=list
    )
    stale: list[BaselineEntry] = field(default_factory=list)


def apply_baseline(
    findings: list[Finding], entries: list[BaselineEntry]
) -> BaselineResult:
    """Split findings into kept vs waived; detect stale entries."""
    result = BaselineResult()
    used: set[int] = set()
    for f in findings:
        hit = None
        for i, entry in enumerate(entries):
            if entry.matches(f):
                hit = entry
                used.add(i)
                break
        if hit is None:
            result.kept.append(f)
        else:
            result.waived.append((f, hit))
    result.stale = [e for i, e in enumerate(entries) if i not in used]
    return result
