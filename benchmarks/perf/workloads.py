"""The six workloads.  Each object is built inside a fresh subprocess.

A workload has ``setup()`` (inputs, engines — not timed as a repeat but
part of ``setup_s``), ``repeat()`` (one timed operation batch, returning
its wall seconds and a physics digest), ``probes()`` (extra per-layer
measurements the traced pass takes with wrappers off) and
``teardown()``.  The knobs were sized so one repeat takes 0.5–1.3 s on
the 2-core sandbox; ``smoke`` shrinks them for the self-tests.

A repeat is a dict with ``wall_s``, ``steps`` (simulated timesteps it
delivered), ``ops_ms`` (latency of each operation: the repeat itself,
or each job on ``serve-mix``), ``attempted``/``failed`` operations,
``digest`` (sha256 of the physics) and optionally ``layer`` (per-layer
values the workload measures from outside, e.g. client-side latencies),
``run`` and ``sanitizer`` (public result objects for the traced pass).
"""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import os
import random
import shutil
import statistics
import threading
from time import perf_counter
from typing import Any

from benchmarks.perf import OUT_DIR
from benchmarks.perf.checks import digest, run_physics


class Workload:
    name = "?"
    #: Whether ``--seed`` changes the inputs.
    seeded = False
    #: Whether the engine measures wall time (mp) instead of modeling it.
    measured = False

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        #: Digest of an independent computation of the same physics,
        #: when the workload has one (mp: the sim run of its config).
        self.expected_digest: str | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def repeat(self) -> dict[str, Any]:
        raise NotImplementedError

    def probes(self, baseline_wall_s: float) -> dict[str, float]:
        return {}

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# the four case workloads (seedless by construction)


class _CaseWorkload(Workload):
    """``build_case(...)`` once, then ``OverflowD1(cfg).run()`` per repeat."""

    case = "?"
    #: (nodes, scale, nsteps); the second tuple is the smoke size.
    size: tuple[int, float, int] = (0, 0.0, 0)
    smoke_size: tuple[int, float, int] = (0, 0.0, 0)
    f0 = math.inf
    lb_check_interval = 5
    backend = "sim"

    def setup(self) -> None:
        from repro.backend import get_backend
        from repro.cases import build_case
        from repro.machine import sp2

        nodes, scale, nsteps = self.smoke_size if self.smoke else self.size
        cfg = build_case(
            self.case, machine=sp2(nodes=nodes), scale=scale, nsteps=nsteps,
            f0=self.f0,
        )
        self.cfg = dataclasses.replace(
            cfg, lb_check_interval=self.lb_check_interval
        )
        self.engine = get_backend(self.backend)

    def repeat(self) -> dict[str, Any]:
        from repro.core import OverflowD1

        driver = OverflowD1(self.cfg, backend=self.engine)
        t0 = perf_counter()
        run = driver.run()
        wall = perf_counter() - t0
        return _driver_repeat(wall, run, measured=self.measured)

    def teardown(self) -> None:
        self.engine.close()


def _driver_repeat(wall: float, run: Any, measured: bool = False, **extra: Any) -> dict[str, Any]:
    rep = {
        "wall_s": wall,
        "steps": run.nsteps,
        "ops_ms": [wall * 1e3],
        "attempted": 1,
        "failed": 0,
        "digest": digest(run_physics(run)),
        "run": run,
        **extra,
    }
    if not measured:
        rep["sim_time_per_step_s"] = run.time_per_step
    return rep


class SimStore(_CaseWorkload):
    """Dispatch-bound: 18 ranks polling through the DCF service loop.

    Two spare nodes over the 16 grids and a check every step, so
    Algorithm 2 really moves processors (on 16 nodes it cannot)."""

    name = "sim-store"
    case = "store"
    size = (18, 0.05, 2)
    smoke_size = (18, 0.02, 2)
    f0 = 2.0
    lb_check_interval = 1


class SimDeltawing(_CaseWorkload):
    """Kernel-bound contrast: donor-search numpy dominates."""

    name = "sim-deltawing"
    case = "deltawing"
    size = (7, 0.12, 2)
    smoke_size = (7, 0.05, 1)


class SimStoreTraced(SimStore):
    """``sim-store`` written through the trace store and read back."""

    name = "sim-store-traced"

    def setup(self) -> None:
        super().setup()
        self.store_dir = OUT_DIR / f"store-{os.getpid()}"

    def repeat(self) -> dict[str, Any]:
        from repro.analysis import Sanitizer
        from repro.core import OverflowD1
        from repro.obs.perf.comm_matrix import CommMatrix
        from repro.obs.perf.critical_path import analyze_critical_path
        from repro.obs.perf.trends import trend_block
        from repro.obs.store import StoreReader, StoreTracer

        t0 = perf_counter()
        tracer = StoreTracer(
            self.store_dir, meta={"component": "perfbench"}, fresh=True
        )
        sanitizer = Sanitizer(tracer=tracer)
        run = OverflowD1(self.cfg, tracer=tracer, sanitizer=sanitizer).run()
        tracer.close()
        reader = StoreReader(self.store_dir)
        replay = reader.to_tracer()
        analyze_critical_path(replay, igbp=run.igbp_rollup())
        CommMatrix.from_tracer(replay, nranks=run.nprocs)
        trend_block(reader.steps)
        wall = perf_counter() - t0

        store_bytes = sum(
            p.stat().st_size for p in self.store_dir.glob("*.seg")
        )
        rep = _driver_repeat(
            wall, run, sanitizer=sanitizer,
            layer={"obs.store_bytes": store_bytes},
        )
        read_back = sum(
            len(stream) for stream in (
                replay.ops, replay.phase_marks, replay.marks, replay.sends,
                replay.recvs,
            )
        )
        if not sanitizer.report().ok or read_back != tracer.records:
            rep["failed"] = 1
        return rep

    def probes(self, baseline_wall_s: float) -> dict[str, float]:
        plain = statistics.median(
            SimStore.repeat(self)["wall_s"] for _ in range(2)
        )
        return {"obs.trace_overhead_ratio": baseline_wall_s / plain - 1.0}

    def teardown(self) -> None:
        super().teardown()
        shutil.rmtree(self.store_dir, ignore_errors=True)


class MpAirfoil(_CaseWorkload):
    """Transport-bound: 4 real processes, pickle/pipe/shm, no scheduler."""

    name = "mp-airfoil"
    case = "airfoil"
    size = (4, 0.5, 40)
    smoke_size = (4, 0.1, 3)
    backend = "mp"
    measured = True

    def setup(self) -> None:
        from repro.core import OverflowD1

        super().setup()
        sim = OverflowD1(self.cfg).run()
        self.expected_digest = digest(run_physics(sim))
        self.modeled_pct_dcf3d = sim.pct_dcf3d

    def probes(self, baseline_wall_s: float) -> dict[str, float]:
        from repro.machine import sp2

        rounds, frames = (20, 4) if self.smoke else (300, 20)
        machine = sp2(nodes=2)
        ping = self.engine.run(machine, [_pingpong_program(rounds)] * 2)
        bulk = self.engine.run(machine, [_bulk_program(frames)] * 2)
        return {
            "backend.pct_dcf3d_modeled": self.modeled_pct_dcf3d,
            "backend.pingpong_us": ping.returns[0] / 2.0 * 1e6,
            "backend.bulk_mb_s": frames / bulk.returns[0],
        }


_TAG_PROBE = 77


def _pingpong_program(rounds: int):
    """64-byte frames back and forth; returns seconds per round trip."""

    def program(comm):
        peer = 1 - comm.rank
        payload = b"x" * 64
        t0 = yield from comm.now()
        for _ in range(rounds):
            if comm.rank == 0:
                yield from comm.send(peer, _TAG_PROBE, payload, nbytes=64)
                yield from comm.recv(peer, _TAG_PROBE)
            else:
                yield from comm.recv(peer, _TAG_PROBE)
                yield from comm.send(peer, _TAG_PROBE, payload, nbytes=64)
        t1 = yield from comm.now()
        return (t1 - t0) / rounds

    return program


def _bulk_program(frames: int):
    """1 MiB numpy frames one way (the shm path), acknowledged once;
    returns the seconds the whole stream took."""

    def program(comm):
        import numpy as np

        peer = 1 - comm.rank
        t0 = yield from comm.now()
        if comm.rank == 0:
            block = np.zeros(1 << 17, dtype=np.float64)  # 1 MiB
            for _ in range(frames):
                yield from comm.send(peer, _TAG_PROBE, block, nbytes=block.nbytes)
            yield from comm.recv(peer, _TAG_PROBE + 1)
        else:
            for _ in range(frames):
                yield from comm.recv(peer, _TAG_PROBE)
            yield from comm.send(peer, _TAG_PROBE + 1, None, nbytes=8)
        t1 = yield from comm.now()
        return t1 - t0

    return program


# ----------------------------------------------------------------------
# the two seeded workloads


def debris_scenario(seed: int, smoke: bool) -> dict[str, Any]:
    """The generated input of ``offbody-debris`` (a scenario payload).

    The repo's generator draws the bodies — where each starts, which
    way it drifts, the axis it tumbles about, its bobbing phase.  The
    benchmark then gives every body the same speed, tumble rate and bob
    size (how *far* things move decides how much gets regenerated and
    searched, and that is not what a seed should change), and its own
    run block: a larger ``dt`` and an adapt epoch every step, so three
    steps already create and destroy patches."""
    from repro.offbody import generate_scenario

    scenario = generate_scenario("debris", seed, nbodies=3 if smoke else 6)
    for body in scenario["bodies"]:
        params = body["motion"]["params"]
        speed = math.sqrt(sum(v * v for v in params["velocity"]))
        params["velocity"] = [round(v / speed * 0.3, 6) for v in params["velocity"]]
        params.update(rate=0.5, bob_amplitude=0.02, bob_omega=1.0)
    scenario["run"].update(dt=0.3, adapt_interval=1)
    return scenario


class OffbodyDebris(Workload):
    """The second driver and the off-body regenerate/group path."""

    name = "offbody-debris"
    seeded = True

    def setup(self) -> None:
        from repro.offbody import build_offbody_case

        nsteps, nodes = (2, 6) if self.smoke else (3, 12)
        self.case = build_offbody_case(
            debris_scenario(self.seed, self.smoke), nsteps=nsteps, nodes=nodes
        )

    def repeat(self) -> dict[str, Any]:
        from repro.offbody import OffBodyDriver

        driver = OffBodyDriver(self.case)
        t0 = perf_counter()
        run = driver.run()
        wall = perf_counter() - t0
        return _driver_repeat(wall, run)


def serve_jobs(seed: int, smoke: bool) -> list[Any]:
    """The generated input of ``serve-mix``: one batch of job specs.

    40% unique (cold) specs and 60% draws from a small hot set, in a
    seeded order.  A job's cost jumps with its (nodes, nsteps, scale)
    combination — by 15% of a batch between seeds when scales were
    drawn — so the combinations are fixed: spec *i* always has the same
    node count, step count and scale, every (nodes 3-6, nsteps 1-6)
    pair occurring once among the cold specs.  What the seed draws is
    each spec's ``f0``, a distinct value far above any load factor the
    runs reach: a new identity, hence a new cache key, for the same
    work.  The seed also shuffles the order.
    """
    from repro.serve import JobSpec

    rng = random.Random(seed)
    n_cold, n_hot, draws = (8, 4, 3) if smoke else (24, 4, 9)
    f0 = iter(rng.sample(range(1_000, 1_000_000), n_cold + n_hot))

    def specs(count: int) -> list[Any]:
        width = 0.05 / count
        return [
            JobSpec(
                case="airfoil",
                nodes=3 + i % 4,
                nsteps=1 + (i // 4 + 2 * (i % 4)) % 6,
                scale=round(0.05 + width * ((i * 5) % count + 0.5), 6),
                f0=float(next(f0)),
            )
            for i in range(count)
        ]

    jobs = specs(n_cold) + specs(n_hot) * draws
    rng.shuffle(jobs)
    return jobs


class ServeMix(Workload):
    """The request path: protocol, coalescing, cache, warm pool.

    Closed loop: two clients on two connections (= ``nproc``), each
    sending its next job when the previous answer arrives; every batch
    runs on a fresh two-worker server."""

    name = "serve-mix"
    seeded = True
    clients = 2

    def setup(self) -> None:
        self.jobs = serve_jobs(self.seed, self.smoke)
        self.sha = {job: job.sha() for job in set(self.jobs)}
        self.steps = sum(job.nsteps for job in self.jobs)
        self.batches = 0
        # Unix socket paths are capped near 107 bytes and the checkout
        # may sit anywhere, so serve from inside the scratch directory
        # under a relative name.
        self.cwd = os.getcwd()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        os.chdir(OUT_DIR)
        self.socket = f"serve-{os.getpid()}.sock"

    def repeat(self) -> dict[str, Any]:
        from repro.serve import ReproServer, ServeClient

        answers: list[list[tuple[Any, float, bool, str]]] = [
            [] for _ in range(self.clients)
        ]
        errors: list[BaseException] = []

        # One shared queue: a client takes the next job when its last
        # answer arrives, so the batch never waits on one client's
        # unlucky share of the expensive specs.
        pending = collections.deque(self.jobs)

        def client(k: int) -> None:
            try:
                with ServeClient(self.socket) as conn:
                    while pending:
                        try:
                            job = pending.popleft()
                        except IndexError:
                            break
                        t0 = perf_counter()
                        rec = conn.run(job, timeout=60.0)
                        answers[k].append(
                            (job, perf_counter() - t0, rec["cached"], rec["payload"])
                        )
            except BaseException as exc:  # noqa: BLE001 - reported as failed jobs
                errors.append(exc)

        server = ReproServer(self.socket, workers=2).start()
        try:
            threads = [
                threading.Thread(target=client, args=(k,))
                for k in range(self.clients)
            ]
            t0 = perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = perf_counter() - t0
            with ServeClient(self.socket) as conn:
                stats = conn.stats()
        finally:
            server.shutdown()
        return self._checked(wall, answers, stats, errors)

    def _checked(self, wall, answers, stats, errors) -> dict[str, Any]:
        done = [a for per_client in answers for a in per_client]
        failed = len(self.jobs) - len(done)
        first: dict[str, str] = {}
        computed_ms: dict[str, float] = {}
        for job, dt, cached, payload in done:
            # Every answer for a spec — hit, coalesced or recomputed —
            # must be byte-equal to the first one.
            if first.setdefault(self.sha[job], payload) != payload:
                failed += 1
            if not cached:
                computed_ms.setdefault(self.sha[job], dt * 1e3)
        direct, overhead, wrong = self._in_process_sample(first, computed_ms)
        failed += wrong
        cold = [dt * 1e3 for _, dt, cached, _ in done if not cached]
        hits = [dt * 1e3 for _, dt, cached, _ in done if cached]
        cache = stats["cache"]
        return {
            "wall_s": wall,
            "steps": self.steps,
            # Computed jobs only: a median over hits and misses would sit
            # on the edge between the two, and the hit path (a 0.14 ms
            # socket round trip, in the layer block) jitters by 10-25%
            # from run to run on this host, too much to gate on.
            "ops_ms": cold,
            "attempted": len(self.jobs),
            "failed": failed,
            "digest": digest(
                sorted((sha, _payload_physics(text)) for sha, text in first.items())
            ),
            "layer": {
                "serve.cold_job_ms_p50": _median(cold),
                "serve.hit_job_ms_p50": _median(hits),
                "serve.job_ms_p90": statistics.quantiles(cold + hits, n=10)[-1]
                if len(done) > 1 else 0.0,
                "serve.jobs_per_s": len(done) / wall,
                "serve.cache_hit_ratio": cache["hits"]
                / max(1, cache["hits"] + cache["misses"]),
                "serve.run_job_ms": _median(direct),
                "serve.overhead_ms": _median(overhead),
                "serve.worker_crashes": stats["worker_crashes"],
            },
            "errors": [repr(e) for e in errors],
        }

    def _in_process_sample(
        self, first: dict[str, str], computed_ms: dict[str, float]
    ) -> tuple[list[float], list[float], int]:
        """Run a few of the batch's jobs in this process, server down.

        Each must give the served bytes; its time is what the job costs
        without the request path, and the served latency minus that is
        the path's overhead.  The first batch (the warm-up) checks 16
        jobs, later ones a rotating 4, so every job's bytes get checked
        without the check eating the measuring time.
        """
        from repro.serve import run_job_bytes

        count = 16 if self.batches == 0 else 4
        if self.smoke:
            count = 4
        start = (4 * self.batches) % len(self.jobs)
        self.batches += 1
        direct, overhead, wrong = [], [], 0
        for job in (self.jobs * 2)[start:start + count]:
            sha = self.sha[job]
            if sha not in first:
                continue  # its client died; already counted as failed
            t0 = perf_counter()
            payload = run_job_bytes(job)
            ms = (perf_counter() - t0) * 1e3
            wrong += payload != first[sha].encode()
            direct.append(ms)
            if sha in computed_ms:
                overhead.append(computed_ms[sha] - ms)
        return direct, overhead, wrong

    def teardown(self) -> None:
        os.chdir(self.cwd)


def _payload_physics(text: str) -> dict[str, Any]:
    """The physics of a served payload; its simulated times stay out of
    the digest (byte equality of whole payloads is checked relatively,
    against the in-process run and the first answer)."""
    result = json.loads(text)["result"]
    return {
        key: result[key]
        for key in ("nsteps", "nranks", "total_gridpoints", "ngrids", "partition_history")
    } | {"I": result["imbalance"]["I"]}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w
    for w in (
        SimStore, SimDeltawing, SimStoreTraced, MpAirfoil, OffbodyDebris,
        ServeMix,
    )
}
