"""``list`` / ``run`` / ``resume`` / ``sweep`` / ``scenario`` /
``physics``: execute cases and print the paper's per-run statistics."""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from typing import Any

from repro.cli import _common as c


def cmd_list(_args: argparse.Namespace) -> int:
    from repro.cases import case_entry, case_names
    from repro.machine import MACHINE_PRESETS

    print("cases:    " + ", ".join(case_names()))
    print("machines: " + ", ".join(sorted(MACHINE_PRESETS)))
    for name in case_names():
        entry = case_entry(name)
        kind = "" if entry.kind == "overflow" else f" [{entry.kind}]"
        print(f"  {name:<12}{kind} {entry.help}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis import Sanitizer
    from repro.core import build_driver
    from repro.obs.perf import traced_run

    case, target, banner = c.resolve_target(args)
    with closing(c.open_engine(args)) as engine:
        print(f"{banner}, backend={engine.name}")
        options = dict(backend=engine, **c.resilience_kwargs(args))
        if args.trace_store:
            traced = traced_run(
                target, store_dir=args.trace_store, sanitize=args.sanitize,
                meta={"case": case, "component": "run"}, **options,
            )
            run, san, store = traced.run, traced.sanitizer, traced.store
        else:
            san, store = Sanitizer() if args.sanitize else None, None
            run = build_driver(target, sanitizer=san, **options).run()
    c.print_run(run, measured=engine.measured)
    if store is not None:
        print(
            f"trace store: {store.directory} ({store.records} records, "
            f"{store.nranks} ranks; watch with 'repro top "
            f"{store.directory}')"
        )
    return c.finish_sanitizer(san)


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.analysis import Sanitizer
    from repro.core import resume_run
    from repro.resilience import Checkpoint

    ckpt = Checkpoint.load(args.checkpoint)
    meta = ckpt.meta
    print(
        f"resuming {meta.get('case')} on {meta.get('machine')} from "
        f"measured step {meta.get('measured_step')} "
        f"({ckpt.nbytes} bytes, {meta.get('nprocs')} ranks)"
    )
    san = Sanitizer() if args.sanitize else None
    c.print_run(resume_run(ckpt, sanitizer=san, **c.resilience_kwargs(args)))
    return c.finish_sanitizer(san)


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.cases import build_case
    from repro.core import build_driver, speedup_table
    from repro.machine import machine_preset

    try:
        node_counts = sorted(int(v) for v in args.nodes.split(","))
    except ValueError:
        raise ValueError(
            f"--nodes wants comma-separated integers, got {args.nodes!r}"
        ) from None
    runs = []
    cfg: Any = None
    for nodes in node_counts:
        cfg = build_case(
            args.case, machine=machine_preset(args.machine, nodes),
            scale=args.scale, nsteps=args.steps, f0=args.f0,
        )
        print(f"running {nodes} nodes ...", file=sys.stderr)
        runs.append(build_driver(cfg).run())
    table = speedup_table(runs, cfg.total_gridpoints)
    print(table.format())
    if args.csv:
        print(table.to_csv())
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.offbody import generate_scenario, write_scenario

    payload = generate_scenario(args.kind, seed=args.seed, nbodies=args.nbodies)
    path = write_scenario(
        payload, args.out or f"scenario-{args.kind}-{args.seed}.json"
    )
    run = payload["run"]
    print(
        f"{payload['name']}: {payload['kind']} scenario, seed "
        f"{payload['seed']}, {len(payload['bodies'])} bodies, "
        f"{run['nsteps']} steps on {run['machine']} x {run['nodes']} "
        f"nodes, grouping={run['grouping']}"
    )
    print(f"wrote {path}  (execute with 'repro run --scenario {path}')")
    return 0


def cmd_physics(args: argparse.Namespace) -> int:
    from repro.cases.airfoil import AIRFOIL_SEARCH_LISTS, airfoil_grids
    from repro.core import Overset2D
    from repro.motion import PitchOscillation
    from repro.solver import FlowConfig

    driver = Overset2D(
        airfoil_grids(scale=args.scale),
        FlowConfig(mach=args.mach, reynolds=args.reynolds, cfl=2.0),
        AIRFOIL_SEARCH_LISTS,
        motions={0: PitchOscillation()},
        fringe_layers=2,
    )
    print(
        f"{driver.total_gridpoints()} points, "
        f"{driver.last_report.igbps} IGBPs"
    )
    for k in range(args.steps):
        out = driver.step()
        if k % max(1, args.steps // 10) == 0:
            print(
                f"step {k:4d}: t={out['t']:.4f} "
                f"max-resid={max(out['residuals']):.3e}"
            )
    f = driver.surface_forces(0)
    print(f"forces: fx={f['fx']:+.5f} fy={f['fy']:+.5f} "
          f"moment={f['moment']:+.6f}")
    return 0


def register(sub: Any) -> None:
    sub.add_parser("list", help="list cases and machines").set_defaults(
        fn=cmd_list
    )

    run = sub.add_parser(
        "run", help="one OVERFLOW-D1 (or --scenario off-body) simulation"
    )
    c.common(run, scenario_nodes=12)
    c.resilience_opt(run)
    c.sanitize_opt(run)
    c.backend_opt(run)
    c.trace_store_opt(run)
    run.set_defaults(fn=cmd_run)

    resume = sub.add_parser(
        "resume", help="continue a run from a checkpoint file or directory"
    )
    resume.add_argument(
        "checkpoint", help="path to a .rpk checkpoint or a checkpoint dir"
    )
    c.resilience_opt(resume)
    c.sanitize_opt(resume)
    resume.set_defaults(fn=cmd_resume)

    sweep = sub.add_parser("sweep", help="speedup table over node counts")
    c.common(sweep)
    sweep.add_argument("--nodes", default="6,12,24",
                       help="comma-separated node counts")
    sweep.add_argument("--csv", action="store_true",
                       help="also print the CSV series")
    sweep.set_defaults(fn=cmd_sweep)

    scen = sub.add_parser(
        "scenario",
        help="generate a seeded multi-body off-body scenario JSON file "
        "(execute with run/trace/bench --scenario)",
    )
    scen.add_argument(
        "--kind", choices=("store-salvo", "debris", "formation"),
        default="store-salvo",
        help="scenario family (default store-salvo)",
    )
    scen.add_argument(
        "--seed", type=int, required=True,
        help="RNG seed; the same kind+seed always yields a "
        "byte-identical file",
    )
    scen.add_argument(
        "--nbodies", type=int, default=None,
        help="body count override (default: a kind-specific draw)",
    )
    scen.add_argument(
        "--out", default=None, metavar="FILE",
        help="output path (default: scenario-<kind>-<seed>.json)",
    )
    scen.set_defaults(fn=cmd_scenario)

    phys = sub.add_parser("physics", help="real coupled 2-D solve")
    phys.add_argument("--scale", type=float, default=0.05)
    phys.add_argument("--steps", type=int, default=20)
    phys.add_argument("--mach", type=float, default=0.5)
    phys.add_argument("--reynolds", type=float, default=1e4)
    phys.set_defaults(fn=cmd_physics)
