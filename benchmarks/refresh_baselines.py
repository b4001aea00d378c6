#!/usr/bin/env python
"""Regenerate (or check) the checked-in BENCH baselines.

The CI perf gate trace-diffs fresh ``repro bench`` payloads against
``benchmarks/baselines/BENCH_<case>.json``; this script is the one
sanctioned way to move those baselines.  It reruns every bench case
with the exact knobs the gate uses (``--quick``) and writes canonical
JSON plus a ``provenance`` block:

* ``git_sha`` — the commit the numbers were generated at,
* ``generated`` — UTC timestamp,
* ``knobs`` — the resolved case configuration (nodes/scale/nsteps/...),
* ``generator`` — this script's repo-relative path.

``trace-diff`` compares only the deterministic ``simulated`` section
(and ``config_sha``), so the provenance block never participates in
the gate — it exists so a human reading a baseline knows where its
numbers came from.

``--check`` regenerates each payload in memory and trace-diffs it
against the checked-in file *without writing anything*; nonzero exit
on any regression, missing baseline, or missing provenance block.
The nightly CI run calls this mode: because the simulated sections are
bit-deterministic, any drift it reports is a real behavioural change
that landed without refreshing the baselines.

Usage::

    PYTHONPATH=src python benchmarks/refresh_baselines.py           # rewrite
    PYTHONPATH=src python benchmarks/refresh_baselines.py --check   # verify
    PYTHONPATH=src python benchmarks/refresh_baselines.py airfoil x38
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

REPO = Path(__file__).resolve().parents[1]
BASELINE_DIR = Path(__file__).resolve().parent / "baselines"

# Allow `python benchmarks/refresh_baselines.py` without PYTHONPATH.
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.obs.perf.bench import (  # noqa: E402
    BENCH_CASES,
    bench_payload,
    canonical_json,
)
from repro.obs.perf.diff import diff_bench  # noqa: E402

def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=REPO,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _provenance(payload: dict[str, Any]) -> dict[str, Any]:
    return {
        "generator": "benchmarks/refresh_baselines.py",
        "git_sha": _git_sha(),
        "generated": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "knobs": dict(payload["config"]),
    }


def refresh(cases: list[str], check: bool, tolerance: float) -> int:
    """Rewrite (or verify) one baseline per case; returns #failures."""
    failures = 0
    for case in cases:
        payload = bench_payload(case, quick=True)  # the CI perf job's knobs
        payload["provenance"] = _provenance(payload)
        path = BASELINE_DIR / f"BENCH_{case}.json"
        if not check:
            BASELINE_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(canonical_json(payload))
            sha = payload["provenance"]["git_sha"]
            print(f"wrote {path.relative_to(REPO)} (git {sha[:12]})")
            continue
        # --check: diff in memory, never write.
        if not path.exists():
            print(f"MISSING baseline {path.relative_to(REPO)}")
            failures += 1
            continue
        old = json.loads(path.read_text())
        if "provenance" not in old:
            print(
                f"{path.name}: no provenance block "
                f"(regenerate with this script)"
            )
            failures += 1
        report = diff_bench(old, payload, tolerance=tolerance)
        print(f"{path.name}: {report.format()}")
        if not report.ok:
            failures += 1
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate or verify benchmarks/baselines/BENCH_*.json"
    )
    parser.add_argument(
        "cases",
        nargs="*",
        default=[],
        help=f"cases to refresh (default: all of {sorted(BENCH_CASES)})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the checked-in baselines instead of rewriting them",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.02,
        help="relative trace-diff tolerance for --check (default 0.02)",
    )
    args = parser.parse_args(argv)

    cases = args.cases or sorted(BENCH_CASES)
    unknown = [c for c in cases if c not in BENCH_CASES]
    if unknown:
        parser.error(
            f"unknown case(s) {unknown}; choose from {sorted(BENCH_CASES)}"
        )
    failures = refresh(cases, check=args.check, tolerance=args.tolerance)
    if args.check:
        verdict = "OK" if not failures else f"{failures} FAILURE(S)"
        print(f"baseline check: {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
