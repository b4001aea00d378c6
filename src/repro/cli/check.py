"""``check``: the project's static checker over source trees."""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Any


def cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import fix_paths, load_baseline, rule_catalog, run_check

    if args.rules:
        for r in rule_catalog():
            print(f"{r['code']}  [{r['scope']}] {r['name']}: {r['summary']}")
        return 0
    paths = args.paths or ["src"]
    if args.baseline_check and not Path(args.baseline).is_file():
        raise SystemExit(
            f"--baseline-check: baseline file not found: {args.baseline}"
        )
    if args.fix:
        print(fix_paths(paths).format())
    report = run_check(
        paths,
        select=args.select.split(",") if args.select else None,
        baseline=load_baseline(args.baseline),
    )
    if args.sarif and args.sarif != "-":
        Path(args.sarif).write_text(report.to_sarif() + "\n", encoding="utf-8")
    if args.sarif == "-":
        print(report.to_sarif())
    else:
        print(
            report.to_json()
            if args.json
            else report.format(show_summary=args.summary)
        )
    stale = args.baseline_check and report.stale_baseline
    return 0 if report.ok and not stale else 1


def register(sub: Any) -> None:
    check = sub.add_parser(
        "check",
        help="static checker: per-file determinism rules and "
        "whole-program comm-protocol / lock-discipline rules "
        "(RPR001-RPR015), noqa + baseline waivers, JSON / SARIF output",
    )
    check.add_argument(
        "paths", nargs="*",
        help="files/directories to check; the non-test ones are linked "
        "and analyzed as one program (default: src)",
    )
    check.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (e.g. RPR001,RPR014)",
    )
    check.add_argument(
        "--json", action="store_true", help="emit the JSON report"
    )
    check.add_argument(
        "--sarif", metavar="FILE",
        help="write a SARIF 2.1.0 report to FILE ('-' for stdout)",
    )
    check.add_argument(
        "--baseline", default="analysis-baseline.json", metavar="FILE",
        help="suppression baseline for documented false positives "
        "(default: analysis-baseline.json; missing file = empty)",
    )
    check.add_argument(
        "--baseline-check", action="store_true",
        help="also fail (exit 1) when the baseline contains stale "
        "entries that no longer match any finding",
    )
    check.add_argument(
        "--rules", action="store_true",
        help="list the rule catalog and exit",
    )
    check.add_argument(
        "--summary", action="store_true",
        help="print the extracted communication summary after the "
        "findings",
    )
    check.add_argument(
        "--fix", action="store_true",
        help="auto-fix RPR007 findings in place (wrap unordered loop "
        "iterables in sorted(...)), then check the result",
    )
    check.set_defaults(fn=cmd_check)
