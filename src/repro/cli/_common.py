"""What the command modules share: argument groups, the name -> case
resolution, engine construction and the run / epoch summary lines."""

from __future__ import annotations

import argparse
import math
import os
from pathlib import Path
from typing import Any, Mapping

from repro.cases import build_case
from repro.machine import machine_preset

DEFAULT_TRACE_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


# ----------------------------------------------------------------------
# argument groups


def case_arg(
    sp: argparse.ArgumentParser, optional: bool = False, extra: str = ""
) -> None:
    sp.add_argument(
        "case", nargs="?" if optional else None, default=None,
        help="airfoil | deltawing | store | x38" + extra,
    )


def common(sp: argparse.ArgumentParser, scenario_nodes: int = 0) -> None:
    """The case and its knobs.  ``scenario_nodes`` (the default node
    count) marks a command that also takes ``--scenario FILE`` instead
    of a case name; its ``--nodes`` / ``--steps`` default to None = not
    given, so the file's own run block wins unless overridden."""
    case_arg(sp, optional=bool(scenario_nodes))
    sp.add_argument("--machine", default="sp2")
    sp.add_argument("--scale", type=float, default=0.1)
    sp.add_argument("--steps", type=int, default=None if scenario_nodes else 5)
    sp.add_argument("--f0", type=float, default=math.inf)
    if scenario_nodes:
        sp.add_argument(
            "--nodes", type=int, default=None,
            help=f"node count (default {scenario_nodes}; a --scenario "
            "file's own node count wins unless given)",
        )
        sp.set_defaults(default_nodes=scenario_nodes)
        scenario_opt(sp)


def backend_opt(sp: argparse.ArgumentParser, cluster: bool = True) -> None:
    sp.add_argument(
        "--backend", default="sim", metavar="NAME",
        help="execution backend: 'sim' (modeled virtual time, "
        "deterministic; default), 'mp' (real multiprocessing "
        "ranks, measured wall time, identical physics), or "
        "'cluster' (multi-host node daemons over TCP, elastic)",
    )
    if cluster:
        sp.add_argument(
            "--cluster-nodes", type=int, default=2, metavar="N",
            help="node-daemon pool size for --backend cluster "
            "(default 2, spawned on localhost)",
        )


def trace_store_opt(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--trace-store", metavar="DIR",
        help="stream trace events to a segment store at DIR "
        "(one append-only log of segments + index; bounded memory; "
        "tail it live with 'repro top DIR')",
    )


def sanitize_opt(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--sanitize", action="store_true",
        help="shadow the run with the SimMPI sanitizer "
        "(message-race / tag / collective / finalize checks; "
        "exits 1 on findings)",
    )


def scenario_opt(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--scenario", metavar="FILE",
        help="execute a generated off-body scenario file instead of "
        "a built-in case (adaptive Cartesian patches + Algorithm 3 "
        "grouping; see 'repro scenario' and docs/offbody.md)",
    )
    sp.add_argument(
        "--grouping", choices=("algorithm3", "roundrobin"),
        default=None,
        help="off-body grouping strategy override for --scenario "
        "(default: the scenario's run block, normally algorithm3)",
    )


def resilience_opt(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--fault", action="append", metavar="SPEC",
        help="inject a fail-stop fault, e.g. rank=3@step=40 "
        "(also rank=R@t=SECONDS / rank=R@phase=K; repeatable)",
    )
    sp.add_argument(
        "--checkpoint-every", type=int, metavar="N",
        help="checkpoint the driver state every N measured steps",
    )
    sp.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist checkpoints to DIR (usable by 'repro resume')",
    )


def socket_opt(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        # Short and stable: unix socket paths cap out around 107 bytes.
        "--socket", default=f"/tmp/repro-serve-{os.getuid()}.sock",
        metavar="PATH",
        help="unix socket of the job server "
        "(default: /tmp/repro-serve-<uid>.sock)",
    )


# ----------------------------------------------------------------------
# resolution


def resolve_target(args: argparse.Namespace) -> tuple[str, Any, str]:
    """What ``run``/``trace`` execute: (case name, case object, banner)
    from a case name or ``--scenario FILE``."""
    if args.scenario:
        from repro.offbody import build_offbody_case, load_scenario

        if args.case:
            raise SystemExit("give either a case name or --scenario, not both")
        # None = flag not given: the file's own run block wins.
        target = build_offbody_case(
            load_scenario(args.scenario),
            nodes=args.nodes, nsteps=args.steps, grouping=args.grouping,
        )
        return target.name, target, (
            f"{target.name}: {target.n_near} near-body grids, "
            f"{target.machine.name} x {target.machine.nodes} nodes, "
            f"{target.nsteps} steps (adapt every {target.adapt_interval}), "
            f"grouping={target.grouping}"
        )
    if not args.case:
        raise SystemExit("no case given (a case name or --scenario FILE)")
    nodes = args.nodes if args.nodes is not None else args.default_nodes
    machine = machine_preset(args.machine, nodes)
    cfg = build_case(
        args.case,
        machine=machine,
        scale=args.scale,
        nsteps=5 if args.steps is None else args.steps,
        f0=args.f0,
    )
    return args.case, cfg, (
        f"{cfg.name}: {cfg.total_gridpoints} points, {len(cfg.grids)} "
        f"grids, {machine.name} x {machine.nodes} nodes, "
        f"f0={'inf' if math.isinf(args.f0) else args.f0}"
    )


def open_engine(args: argparse.Namespace) -> Any:
    """The ``--backend`` engine; the caller closes it."""
    from repro.backend import get_backend

    options: dict[str, Any] = {}
    if args.backend == "cluster":
        options["nnodes"] = args.cluster_nodes
    return get_backend(args.backend, **options)


def resilience_kwargs(args: argparse.Namespace) -> dict[str, Any]:
    """Driver kwargs from the shared --fault/--checkpoint-* options."""
    kwargs: dict[str, Any] = {}
    if args.fault:
        kwargs["fault_plan"] = list(args.fault)
    if args.checkpoint_every:
        kwargs["checkpoint_every"] = args.checkpoint_every
    if args.checkpoint_dir:
        kwargs["checkpoint_store"] = args.checkpoint_dir
    return kwargs


# ----------------------------------------------------------------------
# summaries


def finish_sanitizer(san: Any) -> int:
    """Print the sanitizer report; return the process exit code."""
    if san is None:
        return 0
    report = san.report()
    print()
    print(report.format())
    return 0 if report.ok else 1


def summary_line(s: Mapping[str, Any], measured: bool = False) -> str:
    """The paper's per-run statistics, one line, from a
    :func:`repro.core.run_summary`-shaped mapping."""
    unit = "measured wall s" if measured else "simulated s"
    return (
        f"time/step {s['time_per_step_s']:.4f} {unit} "
        f"({s['elapsed_s']:.4f} over {s['nsteps']} steps on "
        f"{s['nranks']} ranks); Mflops/node {s['mflops_per_node']:.1f}, "
        f"%DCF3D {s['pct_dcf3d']:.1f}%"
    )


def epoch_line(e: Mapping[str, Any], strategy: str) -> str:
    """One line for an ``OffBodyEpoch.summary()``-shaped mapping."""
    return (
        f"epoch @ step {e['first_step']}: {e['npatches']} patches "
        f"(+{e['created']}/-{e['destroyed']}), {strategy} cut "
        f"{e['cut_points']} pts / {e['cut_edges']} edges "
        f"(intra {e['intra_edges']}), tau {e['balance_tau']:.3f}"
    )


def print_decomposition(r: Any) -> None:
    """Partition history, plus per-epoch patch/grouping statistics
    when the run was an off-body one."""
    from repro.offbody import OffBodyRunResult

    for step, procs in r.partition_history:
        print(f"partition from step {step}: {procs}")
    if isinstance(r, OffBodyRunResult):
        for e in r.epochs:
            levels = " ".join(
                f"L{k}:{v}" for k, v in sorted(e.level_counts.items())
            )
            print(f"{epoch_line(e.summary(), e.strategy)} [{levels}]")


def print_run(r: Any, measured: bool = False) -> None:
    from repro.core import run_summary

    print(summary_line(run_summary(r), measured))
    print_decomposition(r)
    for rec in r.recoveries:
        print(rec.describe())
    if r.recoveries:
        unit = "measured wall s" if measured else "simulated s"
        print(
            f"wall (incl. rollback) {r.wall_elapsed:.4f} {unit}, "
            f"downtime {r.downtime:.4f} s over {len(r.recoveries)} "
            f"recovery(ies)"
        )
