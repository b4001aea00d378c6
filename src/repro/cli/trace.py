"""``trace`` / ``top``: one traced run and its exports; the live view
of a trace store."""

from __future__ import annotations

import argparse
from contextlib import closing
from pathlib import Path
from typing import Any

from repro.cli import _common as c


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import PhaseRollup, write_chrome_trace, write_rollup_csv
    from repro.obs.perf import traced_run

    case, target, banner = c.resolve_target(args)
    out_dir = Path(args.out)
    with closing(c.open_engine(args)) as engine:
        print(f"{banner}, tracing enabled, backend={engine.name}")
        traced = traced_run(
            target, store_dir=args.trace_store, sanitize=args.sanitize,
            backend=engine, meta={"case": case, "component": "trace"},
            from_step=args.from_step, **c.resilience_kwargs(args),
        )
    partial = args.from_step is not None
    stem = f"trace_{case}" + (f"_from{args.from_step}" if partial else "")
    rollup = (
        PhaseRollup.from_tracer(traced.tracer) if partial
        else traced.run.rollup()
    )
    paths = [
        write_chrome_trace(traced.tracer, out_dir / f"{stem}.json"),
        write_rollup_csv(rollup, out_dir / f"{stem}_rollup.csv"),
    ]
    _print_trace(args, traced, rollup, paths)
    if args.trends:
        _print_trends(traced.steps, out_dir / f"trace_{case}_trends.csv",
                      args.width)
    return c.finish_sanitizer(traced.sanitizer)


def _print_trace(
    args: argparse.Namespace, traced: Any, rollup: Any, paths: list[Path]
) -> None:
    from repro.obs import ascii_timeline

    run, tracer, store = traced.run, traced.tracer, traced.store
    unit = "wall" if tracer.clock == "wall" else "virtual"
    print(f"\n{len(tracer.ops)} span events over {run.elapsed:.4f} "
          f"{unit} s ({run.nsteps} steps, {len(run.epochs)} epochs)")
    if args.from_step is not None:
        print(
            f"partial replay from step {args.from_step}: spans, rollup "
            f"and timeline below cover steps {args.from_step}.. only "
            f"(exports carry the _from{args.from_step} suffix)"
        )
    print(rollup.format_breakdown())
    ig = run.igbp_rollup().summary()
    print(f"\nI(p) over the last window: {ig['I']}")
    print(f"Ibar = {ig['ibar']:.2f}, max f(p) = {ig['f_max']:.3f}")
    c.print_decomposition(run)
    for rec in run.recoveries:
        print(rec.describe())
    if not args.no_timeline:
        print()
        print(ascii_timeline(tracer, width=args.width))
    print(f"\nwrote {paths[0]}  (load in chrome://tracing or Perfetto)")
    print(f"wrote {paths[1]}")
    if args.trace_store:
        print(
            f"trace store: {store.directory} ({store.records} records; "
            f"watch live with 'repro top {store.directory}')"
        )


def _print_trends(steps: list[dict[str, Any]], path: Path, width: int) -> None:
    from repro.obs.perf import step_series, trend_chart, write_trend_csv

    if not steps:
        print("trends: no per-step rollups in the store index")
        return
    print()
    print(trend_chart(step_series(steps), width=width))
    print(f"\nwrote {write_trend_csv(steps, path)}")


def cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.store.top import run_top

    return run_top(
        args.store,
        interval=args.interval,
        once=args.once,
        width=args.width,
        wait=args.wait,
    )


def register(sub: Any) -> None:
    trace = sub.add_parser(
        "trace",
        help="one traced run: Chrome trace JSON + rollup CSV + timeline",
    )
    c.common(trace, scenario_nodes=8)
    c.resilience_opt(trace)
    c.sanitize_opt(trace)
    c.backend_opt(trace)
    trace.add_argument("--out", default=str(c.DEFAULT_TRACE_DIR),
                       help="output directory for trace/rollup files")
    trace.add_argument("--width", type=int, default=72,
                       help="ASCII timeline width in characters")
    trace.add_argument("--no-timeline", action="store_true",
                       help="skip the ASCII timeline")
    c.trace_store_opt(trace)
    trace.add_argument(
        "--trends", action="store_true",
        help="per-step trend analytics from the store index: ASCII "
        "phase-time and imbalance plots + a trends CSV",
    )
    trace.add_argument(
        "--from-step", type=int, default=None, metavar="N",
        help="replay only steps N.. from the trace store via the "
        "index's per-step byte offsets; exports are suffixed _fromN",
    )
    trace.set_defaults(fn=cmd_trace)

    top = sub.add_parser(
        "top",
        help="live view of a running traced job: per-rank phase "
        "occupancy, f(p) imbalance and hot comm edges, tailed from a "
        "trace store",
    )
    top.add_argument("store", help="trace-store directory to tail")
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="refresh interval in seconds (default 1.0)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single snapshot of what is durable now and exit",
    )
    top.add_argument(
        "--width", type=int, default=80,
        help="render width in characters (default 80)",
    )
    top.add_argument(
        "--wait", type=float, default=0.0, metavar="S",
        help="wait up to S seconds for the store to appear "
        "(for racing a freshly launched job)",
    )
    top.set_defaults(fn=cmd_top)
