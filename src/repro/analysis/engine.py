"""The static checker behind ``repro check``: registry, run, report.

Off-the-shelf linters know nothing about the invariants this codebase
lives and dies by: reserved message-tag spaces, bit-deterministic
scheduler/solver/connectivity paths, typed failure exceptions that must
never be swallowed, a request/reply protocol whose tags must pair up
across the whole program, lock discipline in the threaded serve/cluster
code.  This module is the one engine for all of them:

* every rule has a stable code (``RPR001`` ...), a one-line summary and
  a documented rationale (``repro check --rules``,
  ``docs/static-analysis.md``), lives in one registry and is selectable
  with ``--select``;
* :func:`run_check` loads the inputs once
  (:func:`~repro.analysis.callgraph.load_program`), extracts the comm
  sites once, and runs per-file rules over every module and
  whole-program rules over the program linked from the non-test ones;
* findings are waived in one pass, in order: ``# noqa: RPRxxx`` on the
  finding's line (a bare ``# noqa`` waives every rule), then the
  checked-in baseline of documented false positives — both counted and
  reported, never silent;
* :class:`CheckReport` renders the outcome as text
  (``path:line:col CODE message``), JSON or SARIF 2.1.0.

Adding a rule is three steps: subclass :class:`Rule` in ``rules.py``
(per-file), ``protocol.py`` or ``locks.py`` (whole-program), decorate it
with :func:`register`, add a fixture test under ``tests/analysis/``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.baseline import BaselineEntry, apply_baseline
from repro.analysis.callgraph import ModuleInfo, Program, load_program
from repro.analysis.model import CommSummary, Finding
from repro.analysis.sarif import sarif_json, to_sarif
from repro.analysis.summary import extract_summary


class Rule:
    """Base class for checker rules.

    Subclasses set :attr:`code` (``RPRnnn``), :attr:`name` (short
    kebab-case slug), :attr:`summary` (one line, shown by ``--rules``)
    and :attr:`rationale` (why the invariant matters; surfaces in the
    docs and the SARIF rule descriptors).  A per-file rule implements
    :meth:`check_file` (and scopes itself with :meth:`applies`); a
    whole-program rule sets :attr:`whole_program` and overrides
    :meth:`check`.
    """

    code: str = "RPR000"
    name: str = "abstract-rule"
    summary: str = ""
    rationale: str = ""
    whole_program: bool = False

    def applies(self, mod: ModuleInfo) -> bool:
        """Whether this per-file rule runs on ``mod`` (path scoping)."""
        return True

    def check_file(self, mod: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def check(self, program: Program) -> Iterator[Finding]:
        """Every finding of this rule over the loaded inputs."""
        for mod in program.files:
            if self.applies(mod):
                yield from self.check_file(mod)


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
    # The rule modules register themselves on import; imported here, not
    # at the top, because they import Rule/register from this module.
    from repro.analysis import locks, protocol, rules  # noqa: F401

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def rule_catalog() -> list[dict]:
    """Rule metadata (code, name, scope, summary, rationale)."""
    return [
        {
            "code": r.code,
            "name": r.name,
            "scope": "whole-program" if r.whole_program else "per-file",
            "summary": r.summary,
            "rationale": r.rationale,
        }
        for r in iter_rules()
    ]


@dataclass
class CheckReport:
    """Outcome of one ``repro check`` run."""

    findings: list[Finding]
    suppressed: list[Finding]  # # noqa waivers
    waived: list[tuple[Finding, BaselineEntry]]  # baseline waivers
    stale_baseline: list[BaselineEntry]
    files_checked: int
    summary: CommSummary

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.code] = out.get(f.code, 0) + 1
        return out

    def format(self, show_summary: bool = False) -> str:
        lines = [f.format() for f in self.findings]
        by_code = ", ".join(
            f"{code} x{n}" for code, n in sorted(self.counts().items())
        )
        lines.append(
            f"{len(self.findings)} finding(s) "
            f"({by_code if by_code else 'none'}), "
            f"{len(self.suppressed)} waived by noqa, "
            f"{len(self.waived)} waived by baseline, "
            f"{self.files_checked} file(s) checked, "
            f"{len(self.summary.sites)} comm site(s)"
        )
        for entry in self.stale_baseline:
            lines.append(
                f"stale baseline entry (no longer reported): "
                f"{entry.describe()}"
            )
        if show_summary:
            lines.append("")
            lines.append("communication summary:")
            for s in self.summary.to_dicts():
                tag = f" tag={s['tag']}" if s["tag"] else ""
                phase = f" phase={s['phase']}" if s["phase"] else ""
                loop = " loop" if s["in_loop"] else ""
                lines.append(
                    f"  {s['path']}:{s['line']} {s['kind']}:{s['op']}"
                    f"{tag}{phase}{loop} [{s['function']}]"
                )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "findings": [f.to_dict() for f in self.findings],
                "suppressed": [f.to_dict() for f in self.suppressed],
                "waived": [
                    {"finding": f.to_dict(), "entry": e.to_dict()}
                    for f, e in self.waived
                ],
                "stale_baseline": [
                    e.to_dict() for e in self.stale_baseline
                ],
                "counts": self.counts(),
                "files_checked": self.files_checked,
                "comm_sites": len(self.summary.sites),
                "ok": self.ok,
            },
            indent=2,
            sort_keys=True,
        )

    def to_sarif(self) -> str:
        """SARIF 2.1.0 with the full rule catalog as descriptors."""
        return sarif_json(
            to_sarif(
                self.findings,
                waived=self.waived,
                suppressed=self.suppressed,
                rules=rule_catalog(),
            )
        )


def run_check(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    baseline: list[BaselineEntry] | None = None,
    root: Path | None = None,
) -> CheckReport:
    """Check every ``.py`` file under ``paths``.

    ``select`` restricts to a subset of rule codes (unknown codes raise
    so CI misconfiguration fails loudly; unreadable inputs are always
    reported as ``RPR000``); ``baseline`` is the list of documented
    waivers; ``root`` is what reported paths — and the ``tests`` /
    deterministic-package scoping read off them — are relative to
    (default: the working directory).
    """
    rules = iter_rules()
    if select is not None:
        want = {c.strip().upper() for c in select}
        known = [r.code for r in rules]
        unknown = want - set(known)
        if unknown:
            raise ValueError(
                f"unknown rule code(s): {sorted(unknown)}; known: {known}"
            )
        rules = [r for r in rules if r.code in want]

    program = load_program(paths, root=root)
    program.summary = extract_summary(program)
    found = list(program.parse_errors)
    for rule in rules:
        found.extend(rule.check(program))

    # one waiver pass: # noqa at the site first, then the baseline
    by_rel = {m.rel: m for m in program.files}
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for f in sorted(found):
        mod = by_rel.get(f.path)
        noqa = mod is not None and mod.waives(f.line, f.code)
        (suppressed if noqa else kept).append(f)
    result = apply_baseline(kept, baseline or [])
    return CheckReport(
        findings=result.kept,
        suppressed=suppressed,
        waived=result.waived,
        stale_baseline=result.stale,
        files_checked=len(program.files) + len(program.parse_errors),
        summary=program.summary,
    )
