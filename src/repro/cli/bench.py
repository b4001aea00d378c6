"""``bench`` / ``trace-diff``: canonical BENCH payloads and the
regression gate over them."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from repro.cli import _common as c


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.perf import BENCH_CASES, bench_payload, write_bench

    cases: list[Any]
    if args.scenario:
        from repro.offbody import load_scenario

        if args.case:
            raise SystemExit("give either a case name or --scenario, not both")
        cases = [load_scenario(args.scenario)]
    elif not args.case:
        raise SystemExit("no case given (a bench case, 'all' or --scenario FILE)")
    else:
        cases = sorted(BENCH_CASES) if args.case == "all" else [args.case]
    exit_code = 0
    for case in cases:
        name = case if isinstance(case, str) else case["name"]
        print(f"bench {name} ...", file=sys.stderr)
        payload = bench_payload(
            case,
            quick=args.quick,
            trace_store=(
                Path(args.trace_store) / name if args.trace_store else None
            ),
            grouping=args.grouping,
        )
        path = write_bench(payload, args.out)
        ok = _print_bench(payload, path)
        if args.compare:
            ok = _compare(args, path) and ok
        if not ok:
            exit_code = 1
    return exit_code


def _print_bench(payload: dict[str, Any], path: Path) -> bool:
    """Print one payload's summary; False on sanitizer findings."""
    sim = payload["simulated"]
    print(f"{payload['case']}: {c.summary_line(sim)}")
    print(
        f"  max f(p) {sim['imbalance']['f_max']:.3f}, "
        f"comm {sim['comm']['total_messages']} msgs / "
        f"{sim['comm']['total_bytes']} B"
    )
    offbody = sim.get("offbody", {"epochs": []})
    for e in offbody["epochs"]:
        print("  " + c.epoch_line(e, offbody["grouping"]))
    if not sim["sanitizer"]["ok"]:
        print(f"  sanitizer: FINDINGS {sim['sanitizer']['counts']}")
    if sim["trend"]["steps"]:
        print(
            f"  trend: {sim['trend']['steps']} step(s), "
            f"max imbalance {sim['trend']['imbalance_max']:.3f}"
        )
    print(f"  wrote {path}")
    return sim["sanitizer"]["ok"]


def _compare(args: argparse.Namespace, path: Path) -> bool:
    """trace-diff the fresh payload against its committed baseline."""
    from repro.obs.perf import diff_files

    baseline = Path(args.baseline_dir) / path.name
    if not baseline.is_file():
        print(f"  compare: no baseline {baseline}", file=sys.stderr)
        return False
    report = diff_files(baseline, path, tolerance=args.tolerance)
    print(report.format())
    return report.ok


def cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.obs.perf import diff_files

    report = diff_files(args.a, args.b, tolerance=args.tolerance)
    print(report.to_json() if args.json else report.format())
    return 0 if report.ok else 1


def register(sub: Any) -> None:
    bench = sub.add_parser(
        "bench",
        help="performance observatory: canonical BENCH_<case>.json payloads",
    )
    c.case_arg(bench, optional=True, extra=" | all")
    bench.add_argument(
        "--quick", action="store_true",
        help="reduced scale/steps/nodes (the CI perf-gate configuration)",
    )
    bench.add_argument(
        "--out", default=str(c.DEFAULT_TRACE_DIR),
        help="output directory for BENCH_<case>.json files",
    )
    c.scenario_opt(bench)
    bench.add_argument(
        "--compare", action="store_true",
        help="after each case, trace-diff the fresh payload against the "
        "committed baseline and exit non-zero on regressions",
    )
    bench.add_argument(
        "--baseline-dir",
        default=str(c.DEFAULT_TRACE_DIR.parent / "baselines"),
        help="baseline directory for --compare "
        "(default: benchmarks/baselines)",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.02,
        help="relative tolerance for --compare (default 2%%)",
    )
    bench.add_argument(
        "--trace-store", metavar="DIR",
        help="keep each case's trace store under DIR/<case> "
        "(default: a temporary directory, discarded)",
    )
    bench.set_defaults(fn=cmd_bench)

    tdiff = sub.add_parser(
        "trace-diff",
        help="classify per-metric deltas between two BENCH payloads; "
        "exits 1 on regression beyond tolerance",
    )
    tdiff.add_argument("a", help="baseline BENCH_*.json")
    tdiff.add_argument("b", help="candidate BENCH_*.json")
    tdiff.add_argument(
        "--tolerance", type=float, default=0.02,
        help="relative tolerance for 'unchanged' (default 2%%)",
    )
    tdiff.add_argument(
        "--json", action="store_true", help="emit the JSON report"
    )
    tdiff.set_defaults(fn=cmd_trace_diff)
