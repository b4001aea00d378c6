"""Orchestrator for ``repro check``.

Loads the program, extracts the communication summary, runs the
protocol and lock passes, then applies waivers in order: ``# noqa``
comments first (inline, visible at the site), then the checked-in
baseline (documented false positives).  The report carries everything
CI needs: kept findings, both waiver kinds, stale baseline entries and
the comm summary itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.analysis.lint import _noqa_codes
from repro.analysis.commcheck.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
)
from repro.analysis.commcheck.callgraph import Program, load_program
from repro.analysis.commcheck.locks import check_lock_discipline
from repro.analysis.commcheck.model import CheckFinding, CommSummary
from repro.analysis.commcheck.protocol import (
    check_collective_divergence,
    check_reserved_tags,
    check_tag_matching,
    check_wildcard_recv_loops,
)
from repro.analysis.commcheck.rules import COMMCHECK_CODES
from repro.analysis.commcheck.summary import extract_summary

_PASSES = (
    check_collective_divergence,
    check_tag_matching,
    check_wildcard_recv_loops,
    check_reserved_tags,
)


@dataclass
class CheckReport:
    """Outcome of one ``repro check`` run."""

    findings: list[CheckFinding]
    suppressed: list[CheckFinding]  # # noqa waivers
    waived: list[tuple[CheckFinding, BaselineEntry]]  # baseline waivers
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


def _apply_noqa(
    program: Program, findings: list[CheckFinding]
) -> tuple[list[CheckFinding], list[CheckFinding]]:
    kept: list[CheckFinding] = []
    suppressed: list[CheckFinding] = []
    lines_by_rel = {m.rel: m.lines for m in program.modules.values()}
    for f in findings:
        lines = lines_by_rel.get(f.path, [])
        line = lines[f.line - 1] if 0 < f.line <= len(lines) else ""
        waived = _noqa_codes(line)
        if waived is not None and (not waived or f.code in waived):
            suppressed.append(f)
        else:
            kept.append(f)
    return kept, suppressed


def run_check(
    paths: Iterable[str | Path],
    root: Path | None = None,
    select: Iterable[str] | None = None,
    baseline: list[BaselineEntry] | None = None,
) -> CheckReport:
    """Run every whole-program pass over ``paths``."""
    if select is not None:
        want = {c.strip().upper() for c in select}
        unknown = want - set(COMMCHECK_CODES)
        if unknown:
            raise ValueError(
                f"unknown rule code(s): {sorted(unknown)}; "
                f"known: {list(COMMCHECK_CODES)}"
            )
    else:
        want = set(COMMCHECK_CODES)

    program = load_program(paths, root=root)
    summary = extract_summary(program)
    findings: list[CheckFinding] = [
        CheckFinding(
            path=rel,
            line=line,
            col=0,
            code="RPR000",
            message=f"syntax error: {msg}",
        )
        for rel, line, msg in program.parse_errors
    ]
    for pazz in _PASSES:
        findings.extend(pazz(program, summary))
    findings.extend(check_lock_discipline(program))
    findings = sorted(
        f for f in findings if f.code in want or f.code == "RPR000"
    )

    findings, suppressed = _apply_noqa(program, findings)
    result = apply_baseline(findings, baseline or [])
    return CheckReport(
        findings=result.kept,
        suppressed=suppressed,
        waived=result.waived,
        stale_baseline=result.stale,
        files_checked=len(program.modules) + len(program.parse_errors),
        summary=summary,
    )


def run_check_with_baseline_file(
    paths: Iterable[str | Path],
    root: Path | None = None,
    select: Iterable[str] | None = None,
    baseline_path: str | Path | None = None,
) -> CheckReport:
    """:func:`run_check`, loading the baseline file when it exists."""
    entries: list[BaselineEntry] = []
    if baseline_path is not None and Path(baseline_path).is_file():
        entries = load_baseline(baseline_path)
    return run_check(paths, root=root, select=select, baseline=entries)
