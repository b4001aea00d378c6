"""Command-line interface: run cases and regenerate tables.

Usage (installed as ``python -m repro``):

    python -m repro list
    python -m repro run airfoil --machine sp2 --nodes 12 --scale 0.5 --steps 5
    python -m repro run --case airfoil --backend mp --nodes 4 --scale 0.25
    python -m repro run airfoil --steps 60 --checkpoint-every 25 \
        --checkpoint-dir ckpts --fault rank=3@step=40
    python -m repro resume ckpts
    python -m repro sweep store --machine sp2 --nodes 16,28,52 --scale 0.1
    python -m repro trace airfoil --nodes 8 --scale 0.1 --steps 4
    python -m repro trace airfoil --trace-store /tmp/st --trends
    python -m repro run x38 --backend mp --trace-store /tmp/st
    python -m repro top /tmp/st --once
    python -m repro physics --scale 0.05 --steps 20
    python -m repro check src tests
    python -m repro run x38 --sanitize
    python -m repro bench all --quick
    python -m repro bench x38 --quick --compare
    python -m repro bench airfoil --quick --backend mp
    python -m repro trace-diff benchmarks/baselines/BENCH_x38.json \
        benchmarks/results/BENCH_x38.json
    python -m repro serve --workers 4 --cache-dir /var/tmp/repro-cache
    python -m repro submit airfoil --nodes 8 --scale 0.1 --steps 5
    python -m repro jobs --stats
    python -m repro scenario --kind store-salvo --seed 7 --out scen.json
    python -m repro run --scenario scen.json --backend mp
    python -m repro trace --scenario scen.json
    python -m repro trace airfoil --trace-store /tmp/st --from-step 3
    python -m repro bench --scenario scen.json

``run``/``trace``/``bench`` accept ``--backend {sim,mp}``: ``sim`` is
the deterministic discrete-event simulator (modeled virtual time, the
default and the only backend the CI gates compare); ``mp`` executes the
same rank programs on real ``multiprocessing`` processes and reports
measured wall time — physics (Q fields, IGBP counts) are identical by
construction and cross-checked.  ``bench --compare`` additionally
trace-diffs each fresh payload against ``benchmarks/baselines/`` in the
same invocation.

``run`` executes one OVERFLOW-D1 simulation and prints the paper's
per-run statistics; with ``--fault`` / ``--checkpoint-every`` /
``--checkpoint-dir`` it exercises the resilience machinery
(:mod:`repro.resilience`): injected fail-stop faults, periodic
checkpoints and elastic recovery.  With ``--sanitize`` the run is
shadowed by the SimMPI sanitizer (:mod:`repro.analysis`), which
reports wildcard message races, tag collisions, collective mismatches
and finalize leaks without changing virtual time; ``check`` runs the
project's static checker (rules ``RPR001``-``RPR015``: per-file
determinism rules plus whole-program comm-protocol and lock-discipline
rules) over source trees.  Both exit non-zero when findings remain.  ``resume`` continues a run from a
checkpoint file (or the newest checkpoint in a directory).  ``sweep``
produces a Table-1-style speedup table over several node counts;
``trace`` runs one simulation with per-rank span tracing enabled and
dumps a Chrome ``trace_event`` JSON, a CSV rollup and an ASCII per-rank
timeline (see docs/observability.md); ``physics`` runs the real coupled
2-D solver on the oscillating-airfoil system.

``bench`` runs the performance-observatory harness
(:mod:`repro.obs.perf`): each case executes under the span tracer and
sanitizer, is analyzed for critical path, comm matrix and f(p)=I(p)/Ibar
imbalance, and lands as schema-versioned canonical ``BENCH_<case>.json``;
``trace-diff`` classifies per-metric deltas between two such payloads
and exits non-zero on regressions beyond tolerance — the CI perf gate.

``scenario`` generates a seeded multi-body off-body case file
(:mod:`repro.offbody`): randomized store salvos, tumbling debris or
formation flights as canonical ``repro-scenario/1`` JSON.
``run``/``trace``/``bench`` accept ``--scenario FILE`` to execute such
a file with the adaptive off-body driver (Algorithm 3 grouping; see
docs/offbody.md) instead of a built-in case.  ``trace --from-step N``
replays only steps ``N..`` from a segment store using the index's
per-step byte offsets.

``serve`` starts the simulation-as-a-service daemon
(:mod:`repro.serve`): a pool of warm worker processes executes queued
jobs over a unix socket, with ``config_sha``-keyed result caching so
identical deterministic submissions are answered byte-identically for
free; ``submit`` and ``jobs`` are the matching clients.  See
docs/serving.md.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from repro.cases import UnknownCaseError, case_entry, case_names
from repro.core import build_driver, speedup_table
from repro.machine import MACHINE_PRESETS

DEFAULT_TRACE_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def _machine(name: str, nodes: int):
    try:
        preset = MACHINE_PRESETS[name]
    except KeyError:
        raise SystemExit(
            f"unknown machine {name!r}; choose from {sorted(MACHINE_PRESETS)}"
        )
    if name == "ymp":
        return preset()
    return preset(nodes=nodes)


def _case(name: str, machine, scale: float, steps: int, f0: float):
    try:
        entry = case_entry(name)
    except UnknownCaseError as exc:
        raise SystemExit(str(exc))
    if entry.kind != "overflow":
        raise SystemExit(
            f"case {name!r} is an off-body scenario case; "
            f"run it via --scenario <file>"
        )
    return entry.builder(machine=machine, scale=scale, nsteps=steps, f0=f0)


def _steps(args, default: int = 5) -> int:
    """``--steps`` with a per-command default (None = not given)."""
    steps = getattr(args, "steps", None)
    return default if steps is None else steps


def _case_name(args) -> str:
    """The case from the positional argument or the ``--case`` flag."""
    pos = getattr(args, "case_pos", None)
    opt = getattr(args, "case_opt", None)
    if pos and opt and pos != opt:
        raise SystemExit(
            f"conflicting case names: positional {pos!r} vs --case {opt!r}"
        )
    name = opt or pos
    if not name:
        raise SystemExit("no case given (positional argument or --case)")
    return name


def _backend(args):
    """Resolve ``--backend`` to an engine; SystemExit on bad names."""
    from repro.backend import BackendUnavailable, backend_help, get_backend

    name = getattr(args, "backend", "sim")
    options = {}
    if name == "cluster":
        options["nnodes"] = getattr(args, "cluster_nodes", 2)
    try:
        return get_backend(name, **options)
    except (ValueError, BackendUnavailable) as exc:
        lines = "\n".join(
            f"  {n:<6} {doc}" for n, doc in backend_help().items()
        )
        raise SystemExit(f"{exc}\nregistered backends:\n{lines}")


def cmd_list(_args) -> int:
    print("cases:    " + ", ".join(case_names()))
    print("machines: " + ", ".join(sorted(MACHINE_PRESETS)))
    for name in case_names():
        entry = case_entry(name)
        kind = "" if entry.kind == "overflow" else f" [{entry.kind}]"
        print(f"  {name:<12}{kind} {entry.help}")
    return 0


def _resilience_kwargs(args) -> dict:
    """Driver kwargs from the shared --fault/--checkpoint-* options."""
    kwargs = {}
    if getattr(args, "fault", None):
        kwargs["fault_plan"] = list(args.fault)
    if getattr(args, "checkpoint_every", None):
        kwargs["checkpoint_every"] = args.checkpoint_every
    if getattr(args, "checkpoint_dir", None):
        kwargs["checkpoint_store"] = args.checkpoint_dir
    return kwargs


def _make_sanitizer(args, tracer=None):
    """Build a Sanitizer when ``--sanitize`` was given, else None."""
    if not getattr(args, "sanitize", False):
        return None
    from repro.analysis import Sanitizer

    return Sanitizer(tracer=tracer)


def _finish_sanitizer(san) -> int:
    """Print the sanitizer report; return the process exit code."""
    if san is None:
        return 0
    report = san.report()
    print()
    print(report.format())
    return 0 if report.ok else 1


def _print_run(r, measured: bool = False) -> None:
    unit = "measured wall s" if measured else "simulated s"
    print(f"time/step        {r.time_per_step:.4f} {unit}")
    print(f"Mflops/node      {r.mflops_per_node:.1f}")
    print(f"%time in DCF3D   {r.pct_dcf3d:.1f}%")
    _print_decomposition(r)
    for rec in r.recoveries:
        print(rec.describe())
    if r.recoveries:
        print(
            f"wall (incl. rollback) {r.wall_elapsed:.4f} {unit}, "
            f"downtime {r.downtime:.4f} s over {len(r.recoveries)} "
            f"recovery(ies)"
        )


def _store_tracer(args, case: str, component: str):
    """Build the streaming StoreTracer for ``--trace-store`` (or None)."""
    target = getattr(args, "trace_store", None)
    if not target:
        return None
    from repro.obs.store import StoreTracer

    try:
        return StoreTracer(
            target,
            meta={"case": case, "component": component},
            fresh=True,
        )
    except FileExistsError as exc:
        raise SystemExit(str(exc))


def _print_decomposition(r) -> None:
    """Partition history, plus per-epoch patch/grouping statistics
    when the run was an off-body one."""
    from repro.offbody import OffBodyRunResult

    for step, procs in r.partition_history:
        print(f"partition from step {step}: {procs}")
    if not isinstance(r, OffBodyRunResult):
        return
    for e in r.epochs:
        levels = " ".join(
            f"L{k}:{v}" for k, v in sorted(e.level_counts.items())
        )
        print(
            f"epoch @ step {e.first_step}: {e.npatches} patches "
            f"({levels}; +{e.created}/-{e.destroyed}), {e.strategy} cut "
            f"{e.cut_points} pts / {e.cut_edges} edges "
            f"(intra {e.intra_edges}), tau {e.balance_tau:.3f}"
        )


def _no_case_with_scenario(args) -> None:
    if getattr(args, "case_pos", None) or getattr(args, "case_opt", None):
        raise SystemExit("give either a case name or --scenario, not both")


def _target(args, default_nodes: int):
    """What ``run``/``trace`` execute: (case name, case object, banner)
    from a case name or ``--scenario FILE``."""
    if args.scenario:
        from repro.offbody import (
            ScenarioError,
            load_scenario,
            register_scenario_case,
        )

        _no_case_with_scenario(args)
        try:
            entry = register_scenario_case(
                load_scenario(args.scenario), source=args.scenario
            )
            # None = flag not given: the file's own run block wins.
            case = entry.builder(
                nodes=args.nodes, nsteps=args.steps, grouping=args.grouping
            )
        except (ScenarioError, ValueError) as exc:
            raise SystemExit(str(exc))
        return case.name, case, (
            f"{case.name}: {case.n_near} near-body grids, "
            f"{case.machine.name} x {case.machine.nodes} nodes, "
            f"{case.nsteps} steps (adapt every {case.adapt_interval}), "
            f"grouping={case.grouping}"
        )
    machine = _machine(
        args.machine, default_nodes if args.nodes is None else args.nodes
    )
    name = _case_name(args)
    cfg = _case(name, machine, args.scale, _steps(args), args.f0)
    return name, cfg, (
        f"{cfg.name}: {cfg.total_gridpoints} points, {len(cfg.grids)} "
        f"grids, {machine.name} x {machine.nodes} nodes, "
        f"f0={'inf' if math.isinf(args.f0) else args.f0}"
    )


def _execute(args, target, engine, tracer, san, store):
    """Run ``target`` on its driver with the shared resilience options;
    the engine and the trace store (if any) are closed either way."""
    try:
        try:
            driver = build_driver(
                target,
                tracer=tracer,
                sanitizer=san,
                backend=engine,
                **_resilience_kwargs(args),
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        return driver.run()
    finally:
        engine.close()
        if store is not None:
            store.close()


def cmd_run(args) -> int:
    case, target, banner = _target(args, default_nodes=12)
    engine = _backend(args)
    print(f"{banner}, backend={engine.name}")
    tracer = _store_tracer(args, case, "run")
    san = _make_sanitizer(args, tracer=tracer)
    r = _execute(args, target, engine, tracer, san, store=tracer)
    _print_run(r, measured=engine.measured)
    if tracer is not None:
        print(
            f"trace store: {tracer.directory} ({tracer.records} records, "
            f"{tracer.nranks} ranks; watch with 'repro top "
            f"{tracer.directory}')"
        )
    return _finish_sanitizer(san)


def cmd_resume(args) -> int:
    from repro.core import resume_run
    from repro.resilience import Checkpoint, CheckpointError, CheckpointStore

    path = Path(args.checkpoint)
    if path.is_dir():
        store = CheckpointStore(path)
        ckpt = store.latest()
        if ckpt is None:
            raise SystemExit(f"no checkpoints in {path}")
    else:
        try:
            ckpt = Checkpoint.load(path)
        except CheckpointError as exc:
            raise SystemExit(str(exc))
    meta = ckpt.meta
    print(
        f"resuming {meta.get('case')} on {meta.get('machine')} from "
        f"measured step {meta.get('measured_step')} "
        f"({ckpt.nbytes} bytes, {meta.get('nprocs')} ranks)"
    )
    san = _make_sanitizer(args)
    r = resume_run(ckpt, sanitizer=san, **_resilience_kwargs(args))
    _print_run(r)
    return _finish_sanitizer(san)


def cmd_sweep(args) -> int:
    node_counts = sorted(int(v) for v in args.nodes.split(","))
    case = _case_name(args)
    runs = []
    total = None
    for nodes in node_counts:
        machine = _machine(args.machine, nodes)
        cfg = _case(case, machine, args.scale, _steps(args), args.f0)
        total = cfg.total_gridpoints
        print(f"running {nodes} nodes ...", file=sys.stderr)
        runs.append(build_driver(cfg).run())
    table = speedup_table(runs, total)
    print(table.format())
    if args.csv:
        print(table.to_csv())
    return 0


def cmd_trace(args) -> int:
    from repro.obs import (
        SpanTracer,
        ascii_timeline,
        write_chrome_trace,
        write_rollup_csv,
    )

    case, target, banner = _target(args, default_nodes=8)
    engine = _backend(args)
    out_dir = Path(args.out)
    # --trends needs per-step rollups, which come from the segment
    # store's index; default its location under the output directory.
    if args.trends and not args.trace_store:
        args.trace_store = str(out_dir / f"store_{case}")
    store = _store_tracer(args, case, "trace")
    if args.from_step is not None and store is None:
        raise SystemExit(
            "--from-step needs --trace-store: per-step byte offsets "
            "live in the segment store's index"
        )
    mode = "streaming store" if store else "in-memory"
    print(f"{banner}, tracing enabled ({mode}), backend={engine.name}")
    tracer = store if store is not None else SpanTracer()
    san = _make_sanitizer(args, tracer=tracer)
    run = _execute(args, target, engine, tracer, san, store)

    steps = []
    reader = None
    if store is not None:
        # Reconstruct the exact in-memory view from the stream; the
        # exporters below consume it unchanged (and byte-identically).
        from repro.obs.store import StoreReader

        reader = StoreReader(store.directory)
        tracer = reader.to_tracer()
        steps = reader.steps

    suffix = ""
    rollup = None
    if args.from_step is not None:
        from repro.obs import PhaseRollup

        try:
            tracer = reader.to_tracer(from_step=args.from_step)
        except ValueError as exc:
            raise SystemExit(str(exc))
        suffix = f"_from{args.from_step}"
        rollup = PhaseRollup.from_tracer(tracer)
    if rollup is None:
        rollup = run.rollup()
    igbp = run.igbp_rollup()
    trace_path = write_chrome_trace(
        tracer, out_dir / f"trace_{case}{suffix}.json"
    )
    csv_path = write_rollup_csv(
        rollup, out_dir / f"trace_{case}{suffix}_rollup.csv"
    )

    unit = "wall" if tracer.clock == "wall" else "virtual"
    print(f"\n{len(tracer.ops)} span events over {run.elapsed:.4f} "
          f"{unit} s ({run.nsteps} steps, {len(run.epochs)} epochs)")
    if suffix:
        print(
            f"partial replay from step {args.from_step}: spans, rollup "
            f"and timeline below cover steps {args.from_step}.. only "
            f"(exports carry the {suffix} suffix)"
        )
    print(rollup.format_breakdown())
    ig = igbp.summary()
    print(f"\nI(p) over the last window: {ig['I']}")
    print(f"Ibar = {ig['ibar']:.2f}, max f(p) = {ig['f_max']:.3f}")
    _print_decomposition(run)
    for rec in run.recoveries:
        print(rec.describe())
    if not args.no_timeline:
        print()
        print(ascii_timeline(tracer, width=args.width))
    print(f"\nwrote {trace_path}  (load in chrome://tracing or Perfetto)")
    print(f"wrote {csv_path}")
    if store is not None:
        print(
            f"trace store: {store.directory} ({store.records} records; "
            f"watch live with 'repro top {store.directory}')"
        )
    if args.trends:
        from repro.obs.perf.trends import (
            step_series,
            trend_chart,
            write_trend_csv,
        )

        if not steps:
            print("trends: no per-step rollups in the store index")
        else:
            print()
            print(trend_chart(step_series(steps), width=args.width))
            trends_path = write_trend_csv(
                steps, out_dir / f"trace_{case}_trends.csv"
            )
            print(f"\nwrote {trends_path}")
    return _finish_sanitizer(san)


def cmd_physics(args) -> int:
    from repro.cases.airfoil import AIRFOIL_SEARCH_LISTS, airfoil_grids
    from repro.core import Overset2D
    from repro.motion import PitchOscillation
    from repro.solver import FlowConfig

    grids = airfoil_grids(scale=args.scale)
    driver = Overset2D(
        grids,
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


def cmd_scenario(args) -> int:
    from repro.offbody import (
        ScenarioError,
        generate_scenario,
        write_scenario,
    )

    try:
        payload = generate_scenario(
            args.kind, seed=args.seed, nbodies=args.nbodies
        )
    except ScenarioError as exc:
        raise SystemExit(str(exc))
    out = args.out or f"scenario-{args.kind}-{args.seed}.json"
    path = write_scenario(payload, out)
    run = payload["run"]
    print(
        f"{payload['name']}: {payload['kind']} scenario, seed "
        f"{payload['seed']}, {len(payload['bodies'])} bodies, "
        f"{run['nsteps']} steps on {run['machine']} x {run['nodes']} "
        f"nodes, grouping={run['grouping']}"
    )
    print(f"wrote {path}  (execute with 'repro run --scenario {path}')")
    return 0


def cmd_bench(args) -> int:
    from repro.obs.perf import (
        BENCH_CASES,
        run_bench,
        scenario_bench_payload,
        write_bench,
    )

    scenario = None
    if args.scenario:
        from repro.offbody import ScenarioError, load_scenario

        _no_case_with_scenario(args)
        try:
            scenario = load_scenario(args.scenario)
        except ScenarioError as exc:
            raise SystemExit(str(exc))
        cases = [scenario["name"]]
    else:
        case_name = _case_name(args)
        if case_name == "all":
            cases = sorted(BENCH_CASES)
        elif case_name in BENCH_CASES:
            cases = [case_name]
        else:
            raise SystemExit(
                f"unknown bench case {case_name!r}; choose from "
                f"{sorted(BENCH_CASES)} or 'all'"
            )
    engine = _backend(args)  # fail fast on unknown/unavailable names
    engine.close()  # the harness builds its own engine; this one was a probe
    exit_code = 0
    for case in cases:
        knobs = "scenario" if scenario else "quick" if args.quick else "full"
        print(f"bench {case} ({knobs}, {args.repeats} repeat(s), "
              f"backend={engine.name}) ...", file=sys.stderr)
        if scenario:
            payload = scenario_bench_payload(
                scenario,
                repeats=args.repeats,
                backend=engine.name,
                grouping=args.grouping,
            )
            path = write_bench(payload, args.out)
        else:
            payload, path = run_bench(
                case,
                args.out,
                quick=args.quick,
                repeats=args.repeats,
                backend=engine.name,
                trace_store=(
                    str(Path(args.trace_store) / case)
                    if args.trace_store
                    else None
                ),
            )
        sim = payload["simulated"]
        print(
            f"{case}: {sim['elapsed_s']:.4f} simulated s over "
            f"{sim['nsteps']} steps on {sim['nranks']} ranks "
            f"({payload['host']['wall_s_median']:.2f} s wall median)"
        )
        print(
            f"  Mflops/node {sim['mflops_per_node']:.1f}, "
            f"%DCF3D {sim['pct_dcf3d']:.1f}%, "
            f"max f(p) {sim['imbalance']['f_max']:.3f}, "
            f"comm {sim['comm']['total_messages']} msgs / "
            f"{sim['comm']['total_bytes']} B"
        )
        ob = sim.get("offbody", {"epochs": []})
        for e in ob["epochs"]:
            print(
                f"  epoch @ step {e['first_step']}: {e['npatches']} patches "
                f"(+{e['created']}/-{e['destroyed']}), {ob['grouping']} cut "
                f"{e['cut_points']} pts / {e['cut_edges']} edges, "
                f"tau {e['balance_tau']:.3f}"
            )
        meas = payload["host"].get("measured")
        if meas:
            match = "physics match" if meas["igbp_matches_simulated"] \
                else "PHYSICS MISMATCH"
            print(
                f"  measured ({meas['backend']}): "
                f"{meas['elapsed_s_median']:.4f} wall s median, "
                f"{meas['time_per_step_s']:.4f} s/step, "
                f"Mflops/node {meas['mflops_per_node']:.1f}, "
                f"%DCF3D {meas['pct_dcf3d']:.1f}% [{match}]"
            )
            if not meas["igbp_matches_simulated"]:
                exit_code = 1
        if not sim["sanitizer"]["ok"]:
            print(f"  sanitizer: FINDINGS {sim['sanitizer']['counts']}")
            exit_code = 1
        trend = sim.get("trend", {})
        if trend.get("steps"):
            print(
                f"  trend: {trend['steps']} step(s), "
                f"max imbalance {trend['imbalance_max']:.3f}"
            )
        print(f"  wrote {path}")
        if args.compare:
            from repro.obs.perf import diff_files

            baseline = Path(args.baseline_dir) / path.name
            if not baseline.is_file():
                print(f"  compare: no baseline {baseline}", file=sys.stderr)
                exit_code = 1
                continue
            try:
                report = diff_files(baseline, path, tolerance=args.tolerance)
            except (OSError, ValueError) as exc:
                raise SystemExit(str(exc))
            print(report.format())
            if not report.ok:
                exit_code = 1
    return exit_code


def cmd_trace_diff(args) -> int:
    from repro.obs.perf import diff_files

    try:
        report = diff_files(args.a, args.b, tolerance=args.tolerance)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))
    print(report.to_json() if args.json else report.format())
    return 0 if report.ok else 1


def cmd_check(args) -> int:
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
    try:
        report = run_check(
            paths,
            select=args.select.split(",") if args.select else None,
            baseline=load_baseline(args.baseline),
        )
    except (ValueError, FileNotFoundError) as exc:  # bad code/baseline/path
        raise SystemExit(str(exc))
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


def _default_socket() -> str:
    import os

    # Short and stable: unix socket paths cap out around 107 bytes.
    return f"/tmp/repro-serve-{os.getuid()}.sock"


def cmd_serve(args) -> int:
    import signal

    from repro.serve import ReproServer
    from repro.serve.pool import pool_available

    reason = pool_available()
    if reason is not None:
        raise SystemExit(f"repro serve unavailable: {reason}")
    tracer = None
    if args.trace_store:
        from repro.obs.store import StoreTracer

        try:
            # Dispatcher threads record concurrently and jobs are not
            # solver steps, so flush by record count to keep a live
            # `repro top` current.
            tracer = StoreTracer(
                args.trace_store,
                meta={"component": "serve", "workers": args.workers},
                fresh=True,
                flush_every=20,
            )
        except FileExistsError as exc:
            raise SystemExit(str(exc))
        tracer.clock = "wall"
    server = ReproServer(
        args.socket,
        workers=args.workers,
        cache_dir=args.cache_dir,
        job_timeout=args.job_timeout,
        max_retries=args.max_retries,
        tracer=tracer,
    )

    import threading

    drainers: list = []

    def _drain(signum, frame):
        print("draining ...", file=sys.stderr)
        t = threading.Thread(target=server.shutdown, daemon=False)
        t.start()
        drainers.append(t)

    try:
        server.start()
    except OSError as exc:
        raise SystemExit(str(exc))
    # Installed only after start(): the warm workers fork inside
    # start(), and they must not inherit the daemon's drain handler
    # (a process-group SIGTERM/SIGINT would run shutdown in every
    # child against its forked copy of the server).
    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    print(
        f"repro serve: {args.workers} warm worker(s) on {args.socket} "
        f"(cache: {args.cache_dir or 'memory-only'}); "
        f"SIGTERM/Ctrl-C drains and exits",
        file=sys.stderr,
    )
    assert server._accept_thread is not None
    while server._accept_thread.is_alive():
        server._accept_thread.join(timeout=0.5)
    for t in drainers:
        t.join()
    if tracer is not None:
        tracer.close()
        print(
            f"repro serve: trace store closed ({tracer.records} records "
            f"in {args.trace_store})",
            file=sys.stderr,
        )
    print("repro serve: stopped", file=sys.stderr)
    return 0


def _submit_spec(args):
    from repro.serve import JobSpec, JobSpecError

    try:
        return JobSpec(
            case=_case_name(args),
            machine=args.machine,
            nodes=args.nodes,
            scale=args.scale,
            nsteps=_steps(args),
            f0=args.f0,
            backend=getattr(args, "backend", "sim"),
        )
    except JobSpecError as exc:
        raise SystemExit(str(exc))


def cmd_submit(args) -> int:
    import json as _json

    from repro.serve import (
        JobFailedError,
        ServeClient,
        ServeConnectError,
        SocketPathTooLong,
    )

    spec = _submit_spec(args)
    try:
        spec.check_runnable()
    except Exception as exc:
        raise SystemExit(str(exc))
    try:
        client = ServeClient(args.socket)
    except (ServeConnectError, SocketPathTooLong) as exc:
        raise SystemExit(str(exc))
    with client:
        try:
            if args.no_wait:
                rec = client.submit(spec, cache=not args.no_cache)
            else:
                rec = client.run(
                    spec, cache=not args.no_cache, timeout=args.timeout
                )
        except JobFailedError as exc:
            print(f"job failed: {exc}", file=sys.stderr)
            if exc.detail:
                print(
                    _json.dumps(exc.detail, indent=2, sort_keys=True),
                    file=sys.stderr,
                )
            return 1
    if args.json:
        print(_json.dumps(rec, indent=2, sort_keys=True))
        return 0
    print(
        f"job {rec['id']} [{rec['sha'][:12]}] {rec['case']} "
        f"({rec['backend']}): {rec['state']}"
        + (" (cache hit)" if rec.get("cached") else "")
        + (f" after {rec['attempts']} attempt(s)"
           if rec.get("attempts", 0) > 1 else "")
    )
    payload = rec.get("payload")
    if payload:
        blob = _json.loads(payload)
        result = blob["result"]
        unit = "simulated s" if blob.get("deterministic") else "measured wall s"
        print(
            f"  {result['elapsed_s']:.4f} {unit} over "
            f"{result['nsteps']} steps on {result['nranks']} ranks; "
            f"Mflops/node {result['mflops_per_node']:.1f}, "
            f"%DCF3D {result['pct_dcf3d']:.1f}%"
        )
    return 0


def cmd_jobs(args) -> int:
    import json as _json

    from repro.serve import ServeClient, ServeConnectError, SocketPathTooLong

    try:
        client = ServeClient(args.socket)
    except (ServeConnectError, SocketPathTooLong) as exc:
        raise SystemExit(str(exc))
    with client:
        if args.stats:
            stats = client.stats()
            print(_json.dumps(stats, indent=2, sort_keys=True))
            return 0
        jobs = client.jobs()
    if args.json:
        print(_json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        flags = []
        if job.get("cached"):
            flags.append("cache-hit")
        if job.get("attempts", 0) > 1:
            flags.append(f"{job['attempts']} attempts")
        if job.get("error"):
            flags.append(job["error"]["kind"])
        suffix = f" ({', '.join(flags)})" if flags else ""
        print(
            f"{job['id']:>4}  {job['sha'][:12]}  {job['case']:<10} "
            f"{job['backend']:<4} {job['state']}{suffix}"
        )
    return 0


def cmd_top(args) -> int:
    from repro.obs.store import load_index
    from repro.obs.store.top import run_top

    store = Path(args.store)
    if not store.is_dir() and not args.wait:
        raise SystemExit(
            f"no trace store at {store} (start a producer with "
            f"--trace-store, or pass --wait to poll for one)"
        )
    if args.wait:
        import time as _time

        deadline = _time.monotonic() + args.wait
        while not store.is_dir() or (
            load_index(store) is None
            and not any(store.glob("shard-*.seg"))
        ):
            if _time.monotonic() >= deadline:
                raise SystemExit(
                    f"no trace store appeared at {store} within "
                    f"{args.wait:.0f}s"
                )
            _time.sleep(0.1)
    return run_top(
        store,
        interval=args.interval,
        once=args.once,
        width=args.width,
    )


def cmd_node(args) -> int:
    from repro.cluster.node import NodeDaemon
    from repro.cluster.protocol import ClusterProtocolError, parse_hostport

    try:
        host, port = parse_hostport(args.connect)
    except ClusterProtocolError as exc:
        raise SystemExit(str(exc))
    try:
        return NodeDaemon(host, port, name=args.name).run()
    except KeyboardInterrupt:
        return 130


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Parallel dynamic overset grid methods (SC 1997) "
        "reproduction",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list cases and machines").set_defaults(
        fn=cmd_list
    )

    def case_args(sp, extra=""):
        sp.add_argument(
            "case_pos", nargs="?", metavar="case", default=None,
            help="airfoil | deltawing | store | x38" + extra,
        )
        sp.add_argument(
            "--case", dest="case_opt", metavar="CASE",
            help="case name (flag alternative to the positional)",
        )

    def common(sp):
        case_args(sp)
        sp.add_argument("--machine", default="sp2")
        sp.add_argument("--scale", type=float, default=0.1)
        # None = not given: built-in cases default to 5 steps while a
        # --scenario file's own run block wins unless overridden.
        sp.add_argument("--steps", type=int, default=None)
        sp.add_argument("--f0", type=float, default=math.inf)

    def backend_opt(sp):
        sp.add_argument(
            "--backend", default="sim", metavar="NAME",
            help="execution backend: 'sim' (modeled virtual time, "
            "deterministic; default), 'mp' (real multiprocessing "
            "ranks, measured wall time, identical physics), or "
            "'cluster' (multi-host node daemons over TCP, elastic)",
        )
        sp.add_argument(
            "--cluster-nodes", type=int, default=2, metavar="N",
            help="node-daemon pool size for --backend cluster "
            "(default 2, spawned on localhost)",
        )

    def trace_store_opt(sp):
        sp.add_argument(
            "--trace-store", metavar="DIR",
            help="stream trace events to a sharded segment store at DIR "
            "(append-only per-rank segments + index; O(segment) memory; "
            "tail it live with 'repro top DIR')",
        )

    def sanitize(sp):
        sp.add_argument(
            "--sanitize", action="store_true",
            help="shadow the run with the SimMPI sanitizer "
            "(message-race / tag / collective / finalize checks; "
            "exits 1 on findings)",
        )

    def scenario_opt(sp):
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

    def resilience(sp):
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

    run = sub.add_parser(
        "run", help="one OVERFLOW-D1 (or --scenario off-body) simulation"
    )
    common(run)
    run.add_argument(
        "--nodes", type=int, default=None,
        help="node count (default 12; a --scenario file's own node "
        "count wins unless given)",
    )
    scenario_opt(run)
    resilience(run)
    sanitize(run)
    backend_opt(run)
    trace_store_opt(run)
    run.set_defaults(fn=cmd_run)

    resume = sub.add_parser(
        "resume", help="continue a run from a checkpoint file or directory"
    )
    resume.add_argument(
        "checkpoint", help="path to a .rpk checkpoint or a checkpoint dir"
    )
    resilience(resume)
    sanitize(resume)
    resume.set_defaults(fn=cmd_resume)

    sweep = sub.add_parser("sweep", help="speedup table over node counts")
    common(sweep)
    sweep.add_argument("--nodes", default="6,12,24",
                       help="comma-separated node counts")
    sweep.add_argument("--csv", action="store_true",
                       help="also print the CSV series")
    sweep.set_defaults(fn=cmd_sweep)

    trace = sub.add_parser(
        "trace",
        help="one traced run: Chrome trace JSON + rollup CSV + timeline",
    )
    common(trace)
    trace.add_argument(
        "--nodes", type=int, default=None,
        help="node count (default 8; a --scenario file's own node "
        "count wins unless given)",
    )
    scenario_opt(trace)
    resilience(trace)
    sanitize(trace)
    backend_opt(trace)
    trace.add_argument("--out", default=str(DEFAULT_TRACE_DIR),
                       help="output directory for trace/rollup files")
    trace.add_argument("--width", type=int, default=72,
                       help="ASCII timeline width in characters")
    trace.add_argument("--no-timeline", action="store_true",
                       help="skip the ASCII timeline")
    trace_store_opt(trace)
    trace.add_argument(
        "--trends", action="store_true",
        help="per-step trend analytics from the store index: ASCII "
        "phase-time and imbalance plots + a trends CSV (implies a "
        "segment store under --out when --trace-store is not given)",
    )
    trace.add_argument(
        "--from-step", type=int, default=None, metavar="N",
        help="replay only steps N.. from the segment store via the "
        "index's per-step byte offsets (needs --trace-store); exports "
        "are suffixed _fromN",
    )
    trace.set_defaults(fn=cmd_trace)

    bench = sub.add_parser(
        "bench",
        help="performance observatory: canonical BENCH_<case>.json payloads",
    )
    case_args(bench, extra=" | all")
    bench.add_argument(
        "--quick", action="store_true",
        help="reduced scale/steps/nodes (the CI perf-gate configuration)",
    )
    bench.add_argument(
        "--repeats", type=int, default=3,
        help="wall-time repeats (median reported; simulated time must "
        "be identical across repeats)",
    )
    bench.add_argument(
        "--out", default=str(DEFAULT_TRACE_DIR),
        help="output directory for BENCH_<case>.json files",
    )
    backend_opt(bench)
    scenario_opt(bench)
    bench.add_argument(
        "--compare", action="store_true",
        help="after each case, trace-diff the fresh payload against the "
        "committed baseline and exit non-zero on regressions",
    )
    bench.add_argument(
        "--baseline-dir",
        default=str(Path(__file__).resolve().parents[2]
                    / "benchmarks" / "baselines"),
        help="baseline directory for --compare "
        "(default: benchmarks/baselines)",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.02,
        help="relative tolerance for --compare (default 2%%)",
    )
    bench.add_argument(
        "--trace-store", metavar="DIR",
        help="keep each case's final-repeat segment store under "
        "DIR/<case> (default: a temporary directory, discarded)",
    )
    bench.set_defaults(fn=cmd_bench)

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

    def socket_opt(sp):
        sp.add_argument(
            "--socket", default=_default_socket(), metavar="PATH",
            help="unix socket of the job server "
            "(default: /tmp/repro-serve-<uid>.sock)",
        )

    serve = sub.add_parser(
        "serve",
        help="long-lived job server: warm worker pool + result cache "
        "over a unix socket",
    )
    socket_opt(serve)
    serve.add_argument(
        "--workers", type=int, default=2,
        help="warm worker processes (default 2)",
    )
    serve.add_argument(
        "--cache-dir", metavar="DIR",
        help="persist cached results to DIR (default: memory only)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=300.0, metavar="S",
        help="per-job wall-clock budget in seconds (default 300)",
    )
    serve.add_argument(
        "--max-retries", type=int, default=2,
        help="retries after a worker crash (default 2)",
    )
    trace_store_opt(serve)
    serve.set_defaults(fn=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit one job to a running 'repro serve' daemon"
    )
    common(submit)
    submit.add_argument("--nodes", type=int, default=4)
    backend_opt(submit)
    socket_opt(submit)
    submit.add_argument(
        "--no-wait", action="store_true",
        help="enqueue and return immediately (poll with 'repro jobs')",
    )
    submit.add_argument(
        "--no-cache", action="store_true",
        help="force a fresh execution even when the result is cached",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help="seconds to wait for the result (default 300)",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="print the full result frame as JSON",
    )
    submit.set_defaults(fn=cmd_submit)

    jobs = sub.add_parser(
        "jobs", help="list the daemon's jobs (or --stats for counters)"
    )
    socket_opt(jobs)
    jobs.add_argument(
        "--stats", action="store_true",
        help="print cache/queue/worker counters instead of the job list",
    )
    jobs.add_argument(
        "--json", action="store_true", help="print the job list as JSON"
    )
    jobs.set_defaults(fn=cmd_jobs)

    top = sub.add_parser(
        "top",
        help="live view of a running traced job: per-rank phase "
        "occupancy, f(p) imbalance and hot comm edges, tailed from a "
        "segment store",
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

    node = sub.add_parser(
        "node",
        help="cluster node daemon: hosts rank workers for a head "
        "running '--backend cluster'",
    )
    node.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="address of the cluster head to join",
    )
    node.add_argument(
        "--name", default=None, metavar="NAME",
        help="daemon name in head-side logs (default: hostname)",
    )
    node.set_defaults(fn=cmd_node)

    phys = sub.add_parser("physics", help="real coupled 2-D solve")
    phys.add_argument("--scale", type=float, default=0.05)
    phys.add_argument("--steps", type=int, default=20)
    phys.add_argument("--mach", type=float, default=0.5)
    phys.add_argument("--reynolds", type=float, default=1e4)
    phys.set_defaults(fn=cmd_physics)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
