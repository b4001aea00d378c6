"""Which public entry points are wrapped, and the per-layer metrics
computed from what the wrappers saw.

Layers are the repo's module names.  A layer's seconds are the summed
*self* times of its wrapped entry points, so the layers partition the
traced wall time instead of counting nested work twice.
"""

from __future__ import annotations

from typing import Any

from benchmarks.perf.spans import CALLS, RESUMES, SELF_NS, TOTAL_NS, Patcher, Recorder

#: Span names by layer (the keys of ``Recorder.agg``).
COMM_OPS = (
    "send", "recv", "drain_recv", "iprobe", "barrier", "compute", "elapse",
    "set_phase",
)
TRACER_HOOKS = ("op", "phase", "mark", "send", "recv", "advance", "close")
SANITIZER_HOOKS = (
    "begin_run", "end_run", "on_send", "on_recv", "add_batched_counts",
    "on_wildcard_recv", "on_drain", "register_group", "on_collective",
)

#: Every per-layer metric with its unit, in report order.  A metric
#: whose layer a workload does not exercise reads 0.
UNITS: dict[str, str] = {
    "machine.sched_self_s": "s",
    "machine.resumes": "count",
    "machine.us_per_resume": "us",
    "machine.comm_self_s": "s",
    "machine.comm_calls": "count",
    "machine.msgs": "count",
    "machine.bytes": "B",
    "connectivity.dcf_self_s": "s",
    "connectivity.dcf_resumes": "count",
    "connectivity.drain_calls": "count",
    "connectivity.drain_useful_ratio": "ratio",
    "connectivity.search_s": "s",
    "connectivity.search_calls": "count",
    "connectivity.search_steps": "count",
    "connectivity.us_per_search_step": "us",
    "connectivity.holecut_s": "s",
    "connectivity.igbp_s": "s",
    "connectivity.restart_hit_ratio": "ratio",
    "connectivity.igbps": "count",
    "connectivity.orphans": "count",
    "core.driver_self_s": "s",
    "core.program_self_s": "s",
    "core.chunks": "count",
    "core.sim_time_per_step": "sim_s",
    "partition.balance_s": "s",
    "partition.rebalances": "count",
    "grids.motion_s": "s",
    "backend.comm_s": "s",
    "backend.wait_s": "s",
    "backend.compute_s": "s",
    "backend.msgs": "count",
    "backend.bytes": "B",
    "backend.us_per_msg": "us",
    "backend.pct_dcf3d_measured": "%",
    "backend.pct_dcf3d_modeled": "%",
    "backend.pingpong_us": "us",
    "backend.bulk_mb_s": "MB/s",
    "obs.tracer_s": "s",
    "obs.store_records": "count",
    "obs.store_bytes": "B",
    "obs.store_read_s": "s",
    "obs.analytics_s": "s",
    "obs.encode_us_per_record": "us",
    "obs.decode_us_per_record": "us",
    "obs.trace_overhead_ratio": "ratio",
    "analysis.sanitizer_s": "s",
    "analysis.hook_calls": "count",
    "offbody.regen_s": "s",
    "offbody.group_s": "s",
    "offbody.search_s": "s",
    "offbody.patches": "count",
    "offbody.created": "count",
    "offbody.destroyed": "count",
    "offbody.cut_points": "count",
    "offbody.churn_ratio": "ratio",
    "serve.cold_job_ms_p50": "ms",
    "serve.hit_job_ms_p50": "ms",
    "serve.job_ms_p90": "ms",
    "serve.jobs_per_s": "1/s",
    "serve.cache_hit_ratio": "ratio",
    "serve.run_job_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.worker_crashes": "count",
    "bench.trace_overhead_ratio": "ratio",
}


#: Counts that repeat exactly on the simulated driver workloads: a
#: change that moves one has changed behaviour, not speed, and must
#: name it.  (On mp the polling counts depend on timing; on serve-mix
#: the traced sample rotates through the batch.)
EXACT = {
    "workloads": (
        "sim-store", "sim-deltawing", "sim-store-traced", "offbody-debris",
    ),
    "metrics": (
        "machine.resumes", "machine.comm_calls", "machine.msgs",
        "machine.bytes", "connectivity.dcf_resumes",
        "connectivity.drain_calls", "connectivity.drain_useful_ratio",
        "connectivity.search_calls", "connectivity.search_steps",
        "connectivity.restart_hit_ratio", "connectivity.igbps",
        "connectivity.orphans", "core.chunks", "core.sim_time_per_step",
        "partition.rebalances", "obs.store_records", "obs.store_bytes",
        "analysis.hook_calls", "offbody.patches", "offbody.created",
        "offbody.destroyed", "offbody.cut_points", "offbody.churn_ratio",
    ),
}


def install(rec: Recorder) -> Patcher:
    """Wrap every measured entry point; ``Patcher.undo`` removes them."""
    import repro.analysis.sanitizer as sanitizer
    import repro.backend.mp as mp
    import repro.backend.sim as sim
    import repro.connectivity.dcf as dcf
    import repro.connectivity.donorsearch as donorsearch
    import repro.connectivity.holecut as holecut
    import repro.connectivity.igbp as igbp
    import repro.connectivity.restart as restart
    import repro.core.overflow_d1 as overflow_d1
    import repro.grids.motion as motion
    import repro.grids.structured as structured
    import repro.machine.scheduler as scheduler
    import repro.machine.simmpi as simmpi
    import repro.obs.perf.comm_matrix as comm_matrix
    import repro.obs.perf.critical_path as critical_path
    import repro.obs.perf.trends as trends
    import repro.obs.store.codec as codec
    import repro.obs.store.reader as reader
    import repro.obs.store.writer as writer
    import repro.offbody.driver as offbody_driver
    import repro.offbody.manager as offbody_manager
    import repro.partition.assignment as assignment
    import repro.partition.dynamic_lb as dynamic_lb
    import repro.partition.grouping as grouping
    import repro.partition.static_lb as static_lb
    import repro.serve.jobs as jobs

    p = Patcher(("repro", "benchmarks.perf"))

    def fn(name: str, **kw: Any):
        return lambda f: rec.timed(name, f, **kw)

    def gen(name: str, **kw: Any):
        return lambda f: rec.timed_generator(name, f, **kw)

    # machine -----------------------------------------------------------
    p.attribute(scheduler.Simulator, "run", fn("Simulator.run", keep=True))

    def wrap_spawn(spawn):
        def spawn_timed(self, program, *args, **kwargs):
            return spawn(
                self, rec.timed_generator("program", program), *args, **kwargs
            )
        return spawn_timed

    p.attribute(scheduler.Simulator, "spawn", wrap_spawn)
    for op in COMM_OPS:
        hook = None
        if op == "drain_recv":
            hook = lambda msgs: rec.count("drained", len(msgs))  # noqa: E731
        p.attribute(simmpi.Comm, op, gen(f"Comm.{op}", on_return=hook))

    # connectivity ------------------------------------------------------
    p.function(dcf.dcf_rank_program, gen("dcf_rank_program"))
    p.function(
        donorsearch.donor_search,
        fn(
            "donor_search",
            on_return=lambda res: rec.count("search_steps", res.total_steps),
        ),
    )
    p.function(holecut.cut_holes, fn("cut_holes"))
    p.function(igbp.find_igbps, fn("find_igbps"))

    def wrap_cache_init(init):
        def init_seen(self, *args, **kwargs):
            init(self, *args, **kwargs)
            rec.remember("restart_cache", self)
        return init_seen

    p.attribute(restart.RestartCache, "__init__", wrap_cache_init)

    # core / backend ----------------------------------------------------
    p.attribute(overflow_d1.OverflowD1, "run", fn("OverflowD1.run", keep=True))
    p.attribute(
        offbody_driver.OffBodyDriver, "run", fn("OffBodyDriver.run", keep=True)
    )
    p.attribute(sim.SimBackend, "run", _wrap_backend_run(rec, ship=False))
    p.attribute(mp.MpBackend, "run", _wrap_backend_run(rec, ship=True))
    p.function(jobs.run_job_bytes, fn("run_job_bytes", keep=True))

    # partition / grids -------------------------------------------------
    p.function(assignment.build_partition, fn("build_partition"))
    p.function(static_lb.static_balance, fn("static_balance"))
    p.attribute(
        dynamic_lb.DynamicRebalancer, "maybe_rebalance", fn("maybe_rebalance")
    )
    p.attribute(motion.RigidMotion, "apply", fn("RigidMotion.apply"))
    p.attribute(
        structured.CurvilinearGrid, "with_coordinates", fn("with_coordinates")
    )

    # offbody -----------------------------------------------------------
    p.attribute(
        offbody_manager.OffBodyManager, "regenerate",
        fn("OffBodyManager.regenerate", keep=True),
    )
    p.function(grouping.group_grids, fn("group_grids"))

    # obs / analysis ----------------------------------------------------
    for hook_name in TRACER_HOOKS:
        p.attribute(
            writer.StoreTracer, hook_name, fn(f"StoreTracer.{hook_name}")
        )
    p.attribute(
        reader.StoreReader, "to_tracer", fn("StoreReader.to_tracer", keep=True)
    )
    p.function(codec.encode_record, fn("encode_record"))
    p.function(codec.decode_record, fn("decode_record"))
    p.function(
        critical_path.analyze_critical_path, fn("analyze_critical_path", keep=True)
    )
    p.attribute(
        comm_matrix.CommMatrix, "from_tracer",
        fn("CommMatrix.from_tracer", keep=True),
    )
    p.function(trends.trend_block, fn("trend_block", keep=True))
    for hook_name in SANITIZER_HOOKS:
        p.attribute(
            sanitizer.Sanitizer, hook_name, fn(f"Sanitizer.{hook_name}")
        )
    return p


def _wrap_backend_run(rec: Recorder, ship: bool):
    """``ExecutionBackend.run`` as a coarse span counting its messages.

    ``ship`` is for engines whose ranks are forked processes: each rank
    program is timed in the child and returns its recorder snapshot
    beside its own value; the parent strips and merges it.
    """

    def shipping(program):
        def shipped(comm):
            rec.reset()  # the fork copied the parent's open frames
            ret = yield from rec.timed_generator("program", program)(comm)
            return ret, rec.snapshot()
        return shipped

    def wrap(run):
        def run_counted(self, machine, programs, **kwargs):
            carried = kwargs.get("initial_metrics") or ()
            base_msgs = sum(m.messages_sent for m in carried)
            base_bytes = sum(m.bytes_sent for m in carried)
            if ship:
                programs = [shipping(prog) for prog in programs]
            out = run(self, machine, programs, **kwargs)
            if ship:
                for rank, (ret, snap) in enumerate(out.returns):
                    out.returns[rank] = ret
                    rec.merge(snap)
            ranks = out.metrics.ranks
            rec.count("msgs", sum(m.messages_sent for m in ranks) - base_msgs)
            rec.count("bytes", sum(m.bytes_sent for m in ranks) - base_bytes)
            return out
        return rec.timed("ExecutionBackend.run", run_counted, keep=True)

    return wrap


# ----------------------------------------------------------------------
# metrics


def _seconds(agg: dict, names, column: int = SELF_NS) -> float:
    return sum(agg[n][column] for n in names if n in agg) / 1e9


def _get(agg: dict, name: str, column: int) -> int:
    return agg[name][column] if name in agg else 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rec: Recorder, run: Any = None, sanitizer: Any = None, measured: bool = False
) -> dict[str, float]:
    """Per-layer metrics of one traced repeat.

    ``run`` is the driver's public result object (``RunResult`` or
    ``OffBodyRunResult``) when the repeat produced one; counts come from
    it rather than from the wrappers wherever it has them.  ``measured``
    says its times are wall seconds of real ranks, not modeled ones.
    """
    agg, counts = rec.agg, rec.counts
    m = dict.fromkeys(UNITS, 0.0)

    comm_names = [f"Comm.{op}" for op in COMM_OPS]
    resumes = _get(agg, "program", RESUMES)
    m["machine.sched_self_s"] = _seconds(agg, ["Simulator.run"])
    m["machine.resumes"] = resumes
    m["machine.us_per_resume"] = _ratio(m["machine.sched_self_s"] * 1e6, resumes)
    m["machine.comm_self_s"] = _seconds(agg, comm_names)
    m["machine.comm_calls"] = sum(_get(agg, n, CALLS) for n in comm_names)
    m["machine.msgs"] = counts.get("msgs", 0)
    m["machine.bytes"] = counts.get("bytes", 0)

    drain_calls = _get(agg, "Comm.drain_recv", CALLS)
    search_steps = counts.get("search_steps", 0)
    m["connectivity.dcf_self_s"] = _seconds(agg, ["dcf_rank_program"])
    m["connectivity.dcf_resumes"] = _get(agg, "dcf_rank_program", RESUMES)
    m["connectivity.drain_calls"] = drain_calls
    m["connectivity.drain_useful_ratio"] = _ratio(
        counts.get("drained", 0), drain_calls
    )
    m["connectivity.search_s"] = _seconds(agg, ["donor_search"])
    m["connectivity.search_calls"] = _get(agg, "donor_search", CALLS)
    m["connectivity.search_steps"] = search_steps
    m["connectivity.us_per_search_step"] = _ratio(
        m["connectivity.search_s"] * 1e6, search_steps
    )
    m["connectivity.holecut_s"] = _seconds(agg, ["cut_holes"])
    m["connectivity.igbp_s"] = _seconds(agg, ["find_igbps"])
    caches = rec.objects.get("restart_cache", ())
    if caches:
        # The driver's own cache is created first; rank-private copies
        # (mp) are merged into it before the run returns.
        m["connectivity.restart_hit_ratio"] = _ratio(
            caches[0].hits, caches[0].hits + caches[0].misses
        )

    m["core.driver_self_s"] = _seconds(
        agg, ["OverflowD1.run", "OffBodyDriver.run"]
    )
    m["core.program_self_s"] = _seconds(agg, ["program"])
    m["core.chunks"] = _get(agg, "ExecutionBackend.run", CALLS)
    m["partition.balance_s"] = _seconds(
        agg, ["build_partition", "static_balance", "maybe_rebalance"]
    )
    m["grids.motion_s"] = _seconds(agg, ["RigidMotion.apply", "with_coordinates"])

    records = _get(agg, "encode_record", CALLS)
    decoded = _get(agg, "decode_record", CALLS)
    m["obs.tracer_s"] = _seconds(
        agg, [f"StoreTracer.{h}" for h in TRACER_HOOKS] + ["encode_record"]
    )
    m["obs.store_records"] = records
    m["obs.store_read_s"] = _seconds(agg, ["StoreReader.to_tracer"], TOTAL_NS)
    m["obs.analytics_s"] = _seconds(
        agg,
        ["analyze_critical_path", "CommMatrix.from_tracer", "trend_block"],
        TOTAL_NS,
    )
    m["obs.encode_us_per_record"] = _ratio(
        _seconds(agg, ["encode_record"], TOTAL_NS) * 1e6, records
    )
    m["obs.decode_us_per_record"] = _ratio(
        _seconds(agg, ["decode_record"], TOTAL_NS) * 1e6, decoded
    )
    m["analysis.sanitizer_s"] = _seconds(
        agg, [f"Sanitizer.{h}" for h in SANITIZER_HOOKS]
    )
    if sanitizer is not None:
        m["analysis.hook_calls"] = sanitizer.hook_calls

    m["offbody.regen_s"] = _seconds(agg, ["OffBodyManager.regenerate"])
    m["offbody.group_s"] = _seconds(agg, ["group_grids"])

    if run is not None:
        _result_counts(m, run, measured)
    return m


def _result_counts(m: dict[str, float], run: Any, measured: bool) -> None:
    """Counts read from the driver's public result object."""
    m["connectivity.igbps"] = int(run.igbp_rollup().accumulated().sum())
    m["connectivity.orphans"] = sum(e.orphans_total for e in run.epochs)
    history = [tuple(procs) for _, procs in run.partition_history]
    m["partition.rebalances"] = sum(
        1 for a, b in zip(history, history[1:]) if a != b
    )
    if hasattr(run, "physics_signature"):  # the off-body driver
        later = run.epochs[1:]
        m["offbody.search_s"] = m["connectivity.search_s"]
        m["offbody.patches"] = sum(e.npatches for e in run.epochs)
        m["offbody.created"] = sum(e.created for e in run.epochs)
        m["offbody.destroyed"] = sum(e.destroyed for e in run.epochs)
        m["offbody.cut_points"] = sum(e.cut_points for e in run.epochs)
        m["offbody.churn_ratio"] = _ratio(
            sum(e.created + e.destroyed for e in later),
            sum(e.npatches for e in later),
        )
    if measured:
        # The times in the rollup are measured rank-seconds by kind,
        # the messages real transport frames.
        rollup = run.rollup()
        kinds = {"compute": 0.0, "comm": 0.0, "wait": 0.0}
        for phase in rollup.phases():
            for rank in range(rollup.nranks):
                cell = rollup.cell(rank, phase)
                for kind in kinds:
                    kinds[kind] += getattr(cell, kind)
        m["backend.compute_s"] = kinds["compute"]
        m["backend.comm_s"] = kinds["comm"]
        m["backend.wait_s"] = kinds["wait"]
        m["backend.msgs"] = m["machine.msgs"]
        m["backend.bytes"] = m["machine.bytes"]
        m["backend.us_per_msg"] = _ratio(kinds["comm"] * 1e6, m["machine.msgs"])
        m["backend.pct_dcf3d_measured"] = run.pct_dcf3d
    else:
        m["core.sim_time_per_step"] = run.time_per_step
