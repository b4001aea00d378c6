"""The epoch runner: the one per-timestep loop every driver runs on.

The paper runs a single loop — flow solve, grid motion, domain
connectivity, barriers between, a decomposition change between epochs —
for the section-4 near-body cases and the section-5 off-body scheme
alike.  :class:`EpochRunner` is that loop:

    plan epoch -> run sub-chunk on the backend (carried metrics rows)
               -> accumulate -> commit epoch -> checkpoint

and, on a :class:`repro.machine.faults.RankFailure`, the recovery
episode.  Every rank of either kind of run executes one timestep,
:func:`timestep_program`, over one :class:`MovingWorld`.  What differs
between the two kinds of run — which grids exist, how an epoch's
decomposition is chosen, a rank's load and connectivity exchange,
which ranks a shrink may drop — sits behind the :class:`Workload`
seam, with exactly two implementations:
:mod:`repro.core.overflow_d1` (near-body grids, Algorithm 2 between
epochs) and :mod:`repro.offbody.driver` (near-body grids plus off-body
patch groups, regenerated and regrouped each epoch).  The public
constructors :class:`repro.core.OverflowD1` and
:class:`repro.offbody.OffBodyDriver` subclass the runner and pick the
workload; :func:`build_driver` picks between them from the case object.

Resilience (:mod:`repro.resilience`)
------------------------------------
* **checkpointing** splits an epoch into sub-chunks at checkpoint
  boundaries.  Sub-chunks are resumed from the *carried rows*
  (``Simulator(initial_metrics=...)``), each rank at its row's
  ``final_clock``: the scheduler's matching, waking and tie-breaking
  depend only on virtual clocks, so a split epoch is bit-identical to
  the unsplit one — checkpointing perturbs nothing.
  Checkpoint *writes* are modeled as free (overlapped with
  computation); only *restores* carry a modeled cost.
* **fault injection** converts driver-level ``step`` triggers into
  chunk-local phase triggers (one measured timestep = three phase
  barriers) and hands scheduler-level triggers through.
* **elastic recovery** on a ``RankFailure``: survivors run the
  heartbeat detection protocol, the last checkpoint is restored, the
  workload shrinks its decomposition onto the survivors (renumbered
  contiguously, ULFM shrink) and the timestep loop resumes.  The whole
  episode lands on the trace timeline as ``failure-detection`` /
  ``restore`` / ``repartition`` spans with continuous epoch offsets.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Sequence

import numpy as np

from repro.backend import BackendResult, ExecutionBackend, get_backend
from repro.core.config import CaseConfig
from repro.machine.faults import FaultPlan, FaultSpec, RankFailure
from repro.machine.metrics import (
    PHASE_DCF,
    PHASE_FLOW,
    PHASE_MOTION,
    STEP_PHASES,
    PhaseRollup,
)
from repro.obs.rollup import IgbpRollup
from repro.partition.assignment import Partition
from repro.resilience.checkpoint import Checkpoint, CheckpointStore
from repro.resilience.recovery import (
    RecoveryPolicy,
    RecoveryRecord,
    run_failure_detection,
)

if TYPE_CHECKING:  # both import this module
    from repro.core.overflow_d1 import OverflowD1
    from repro.offbody.driver import OffBodyDriver

#: Each measured timestep executes exactly this many ``set_phase``
#: barriers (flow / motion / dcf3d) — the conversion factor between
#: driver-level ``step`` fault triggers and scheduler phase triggers.
PHASES_PER_STEP = len(STEP_PHASES)

#: Halo faces, between near-body subdomains and patch groups alike.
TAG_HALO = 201


# ----------------------------------------------------------------------
# results


@dataclass
class StepStats:
    """Per-rank, per-step connectivity statistics."""

    step: int
    igbps_received: int
    search_steps: int
    donors_found: int
    orphans: int


@dataclass
class EpochResult:
    """One contiguous run at a fixed decomposition.

    All timing/counter data lives in the two rollups: ``rollup``, the
    engines' own per-rank rows, and ``igbp``; every per-phase statistic
    is read off them.
    """

    #: Grid -> processor-group map in force; ``None`` on off-body
    #: epochs, whose decomposition is a patch grouping instead.
    partition: Partition | None
    first_step: int
    nsteps: int
    elapsed: float
    rollup: PhaseRollup     # per-rank/per-phase compute/comm/wait + flops
    igbp: IgbpRollup        # per-step, per-rank I(p)
    search_steps_total: int
    orphans_total: int


@dataclass
class RunResult:
    """Merged outcome of a full run (every driver returns one)."""

    case: str
    machine: str
    nprocs: int
    nsteps: int
    epochs: Sequence[EpochResult] = field(default_factory=list)
    #: Completed failure/restore/repartition episodes, in order.
    recoveries: list[RecoveryRecord] = field(default_factory=list)
    #: Total virtual timeline including lost (rolled-back) work and
    #: recovery overheads.  Equals :attr:`elapsed` for fault-free runs.
    wall_elapsed: float = 0.0

    @property
    def elapsed(self) -> float:
        return sum(e.elapsed for e in self.epochs)

    @property
    def time_per_step(self) -> float:
        return self.elapsed / self.nsteps

    @property
    def downtime(self) -> float:
        """Virtual seconds spent in detection + restore + repartition."""
        return sum(r.downtime for r in self.recoveries)

    def phase_total(self, phase: str) -> float:
        return sum(e.rollup.phase_total(phase) for e in self.epochs)

    @property
    def pct_dcf3d(self) -> float:
        """Percentage of total (rank-summed) time in the connectivity
        solution — the paper's '% Time in DCF3D' column."""
        total = sum(e.rollup.total_seconds() for e in self.epochs)
        if total == 0:
            return 0.0
        return 100.0 * self.phase_total(PHASE_DCF) / total

    @property
    def total_flops(self) -> float:
        return sum(e.rollup.total_flops() for e in self.epochs)

    @property
    def mflops_per_node(self) -> float:
        if self.elapsed == 0:
            return 0.0
        return self.total_flops / self.elapsed / self.nprocs / 1e6

    def phase_elapsed(self, phase: str) -> float:
        """Critical-path seconds of one phase (slowest rank per epoch)."""
        return sum(e.rollup.phase_max(phase) for e in self.epochs)

    @property
    def partition_history(self) -> list[tuple[int, tuple[int, ...]]]:
        """(first step, processors per grid) per epoch."""
        out = []
        for e in self.epochs:
            assert e.partition is not None  # near-body epochs carry one
            out.append((e.first_step, e.partition.procs_per_grid))
        return out

    def rollup(self) -> PhaseRollup:
        """Merged per-rank/per-phase rollup over every epoch."""
        if not self.epochs:
            raise ValueError("run has no epochs")
        merged = PhaseRollup.empty(self.nprocs)
        for e in self.epochs:
            merged.merge(e.rollup)
        return merged

    def igbp_rollup(self) -> IgbpRollup:
        """Merged I(p) series over every epoch.

        Note the merged window restarts whenever a repartition changed
        the rank count (see :meth:`repro.obs.rollup.IgbpRollup.record`).
        """
        merged = IgbpRollup()
        for e in self.epochs:
            merged.merge(e.igbp)
        return merged


def run_summary(run: RunResult) -> dict[str, Any]:
    """The modeled (or measured) numbers of a run as a plain dict.

    The shared core of the BENCH ``simulated`` section and the serve
    result payload; both add their own keys on top.
    """
    igbp = run.igbp_rollup()
    return {
        "elapsed_s": run.elapsed,
        "time_per_step_s": run.time_per_step,
        "mflops_per_node": run.mflops_per_node,
        "pct_dcf3d": run.pct_dcf3d,
        "nsteps": run.nsteps,
        "nranks": run.nprocs,
        "phases": run.rollup().breakdown(),
        "imbalance": {
            "I": [int(v) for v in igbp.accumulated()],
            "ibar": igbp.ibar(),
            "f_max": float(igbp.f().max()) if igbp.nranks else 0.0,
        },
        "partition_history": [
            [step, list(procs)] for step, procs in run.partition_history
        ],
    }


# ----------------------------------------------------------------------
# loop state


@dataclass
class _EpochAccum:
    """Accumulates sub-chunks of one epoch into a single epoch result.

    The per-rank :class:`repro.machine.metrics.RankMetrics` rows are
    *carried* from chunk to chunk (``Simulator(initial_metrics=...)``),
    so the epoch's cells see exactly the same additions in exactly the
    same order as an unsplit run, and each rank's virtual timeline
    resumes at its row's ``final_clock`` — the rollup :meth:`totals`
    builds on them is bit-identical, not just close, which the
    checkpointing bit-identity tests pin.
    """

    nranks: int
    first_step: int          # absolute step (incl. warmup)
    planned: int             # steps this epoch will cover
    steps_done: int = 0
    per_step: list = field(default_factory=list)  # one I(p) row per step
    search_total: int = 0
    orphans_total: int = 0
    donors_total: int = 0
    #: Per-rank RankMetrics rows carried across sub-chunks (see class doc).
    rows: list | None = None

    @property
    def base(self) -> float:
        """Epoch-local virtual time already covered (0.0 at epoch start)."""
        return max(row.final_clock for row in self.rows) if self.rows else 0.0

    def add(self, out: BackendResult, nsteps: int) -> None:
        mat = np.zeros((nsteps, self.nranks), dtype=np.int64)
        for rank, stats in enumerate(out.returns):
            for s, st in enumerate(stats):
                mat[s, rank] = st.igbps_received
                self.search_total += st.search_steps
                self.orphans_total += st.orphans
                self.donors_total += st.donors_found
        for s in range(nsteps):
            self.per_step.append(mat[s])
        self.rows = out.metrics.ranks
        self.steps_done += nsteps

    def totals(self) -> dict[str, Any]:
        """The :class:`EpochResult` fields every workload shares."""
        igbp = IgbpRollup()
        for row in self.per_step:
            igbp.record(row)
        if self.rows is not None:
            rollup = PhaseRollup(self.rows)
        else:
            rollup = PhaseRollup.empty(self.nranks)
        return {
            "first_step": self.first_step,
            "nsteps": self.steps_done,
            "elapsed": self.base,
            "rollup": rollup,
            "igbp": igbp,
            "search_steps_total": self.search_total,
            "orphans_total": self.orphans_total,
        }


@dataclass
class _DriverState:
    """Everything the runner needs to continue (and to checkpoint)."""

    step: int                       # next absolute step (incl. warmup)
    nranks: int
    #: The workload's own carried state (partition + rebalancer + donor
    #: cache, or patch manager + epoch plan); opaque to the runner.
    carry: Any
    epochs: list = field(default_factory=list)
    recoveries: list = field(default_factory=list)
    #: Global virtual time at the current epoch's origin — mirrors the
    #: tracer offset, and works identically with ``tracer=None``.
    vt: float = 0.0
    #: Partial epoch in flight (None exactly at epoch boundaries).
    epoch: _EpochAccum | None = None


def driver_span(
    tracer: Any, ranks: Iterable[int], phase: str, seconds: float
) -> None:
    """A driver-level span: every rank in ``ranks`` spends ``seconds``
    in ``phase`` while the driver works, then the timeline moves on."""
    if tracer is None:
        return
    for r in ranks:
        tracer.phase(r, 0.0, phase)
        tracer.op(r, phase, "compute", 0.0, seconds)
    tracer.advance(seconds)


# ----------------------------------------------------------------------
# the timestep


class MovingWorld:
    """Grid poses as a deterministic function of absolute time.

    Under the simulator every rank reads this one object; under real
    processes each rank moves its private copy, and all copies agree
    bit-for-bit.  :meth:`advance` does nothing when the grids are
    already at ``t``, so every rank calls it and the first one there
    moves them.  What a workload derives from the poses (holes, IGBPs,
    patch coupling) lives in :attr:`memo`, which empties whenever the
    grids move.
    """

    def __init__(self, reference: Sequence[Any], motions: dict[int, Any]) -> None:
        self.reference = list(reference)
        self.motions = motions
        self.grids = list(reference)
        self.time: float | None = None
        self.advance(0.0)

    def advance(self, t: float) -> None:
        if t != self.time:
            self.place(t, [
                g if gi not in self.motions
                else ref.with_coordinates(self.motions[gi].at(t).apply(ref.xyz))
                for gi, (ref, g) in enumerate(zip(self.reference, self.grids))
            ])

    def place(self, t: float, grids: list[Any]) -> None:
        self.grids = grids
        self.time = t
        self.memo: dict[Any, Any] = {}


@dataclass(frozen=True)
class RankLoad:
    """One rank's share of a timestep, as the work model charges it."""

    points: int
    flow_flops: float
    #: ``(neighbour rank, shared face points)`` per halo partner.
    halo: list[tuple[int, int]]
    moves: bool
    #: Fraction of the points in the halo-adjacent strip: the part of
    #: the sweep that waits for neighbour data under ``overlap_halo``.
    strip: float = 0.0


def timestep_program(
    comm: Any,
    load: RankLoad,
    world: MovingWorld,
    work: Any,
    dt: float,
    steps: range,
    exchange: Callable[[int], Generator],
    overlap_halo: bool = False,
) -> Generator:
    """One rank's timesteps: flow solve, grid motion, connectivity, a
    barrier after each.  ``exchange(step)`` is the workload's part of
    connectivity; the :class:`StepStats` it returns are collected."""
    rounds = work.halo_exchanges_per_step
    stats: list[StepStats] = []
    for step in steps:
        # ---- (1) flow solve ---------------------------------------------
        yield from comm.set_phase(PHASE_FLOW)
        if load.points and not overlap_halo:
            yield from comm.compute(
                flops=load.flow_flops, points_per_node=load.points
            )
        for _ in range(rounds):
            for nbr, shared in load.halo:
                yield from comm.send(
                    nbr, TAG_HALO, None, nbytes=work.halo_bytes(shared)
                )
            if overlap_halo:
                # Section-5 latency hiding: sweep the interior while the
                # halos fly, then finish the strip.
                yield from comm.compute(
                    flops=load.flow_flops * (1.0 - load.strip) / rounds,
                    points_per_node=load.points,
                )
            for nbr, _ in load.halo:
                yield from comm.recv(nbr, TAG_HALO)
            if overlap_halo:
                yield from comm.compute(
                    flops=load.flow_flops * load.strip / rounds,
                    points_per_node=load.points,
                )
        yield from comm.barrier()

        # ---- (2) grid motion --------------------------------------------
        yield from comm.set_phase(PHASE_MOTION)
        if load.moves:
            yield from comm.compute(flops=work.motion_flops(load.points))
        world.advance((step + 1) * dt)
        yield from comm.barrier()

        # ---- (3) domain connectivity ------------------------------------
        yield from comm.set_phase(PHASE_DCF)
        if load.points:
            yield from comm.compute(
                flops=work.holecut_flops_per_point * load.points
            )
        stats.append((yield from exchange(step)))
        yield from comm.barrier()
    return stats


class Workload:
    """The grids of one run — the seam the epoch runner is
    parameterised by.

    A workload owns the live :class:`MovingWorld` (grid poses at the
    current step) and knows how to decompose it; everything that must
    survive a checkpoint lives in the picklable ``carry`` object it
    hands the runner at step 0 and gets back on every call.
    """

    #: Untraced, unfaulted, discarded steps before measurement starts.
    warmup_steps: int = 0
    result_type: type[RunResult] = RunResult
    world: MovingWorld

    def __init__(self, target: Any) -> None:
        """Build the world of ``target`` at step 0."""
        #: The case object (``name``, ``machine``, ``nsteps``, ...);
        #: pickled into every checkpoint's ``config``.
        self.target = target

    def initial_carry(self) -> Any:
        """The carried workload state at step 0."""
        raise NotImplementedError

    def plan_epoch(self, state: _DriverState, remaining: int, tracer: Any) -> int:
        """Fix the next epoch's decomposition in ``state.carry``; returns
        the number of steps it covers.  Driver-level work done here is
        charged to ``state.vt`` and the tracer."""
        raise NotImplementedError

    def run_chunk(
        self,
        backend: ExecutionBackend,
        carry: Any,
        first_step: int,
        nsteps: int,
        **run_kwargs: Any,
    ) -> BackendResult:
        """Run ``nsteps`` timesteps of the planned epoch on ``backend``,
        one :func:`timestep_program` per rank; ``run_kwargs`` go to
        :meth:`ExecutionBackend.run` verbatim.  The result's ``returns``
        hold each rank's :class:`StepStats` list."""
        raise NotImplementedError

    def finish_epoch(self, carry: Any, acc: _EpochAccum) -> EpochResult:
        """The result of the epoch accumulated in ``acc``."""
        raise NotImplementedError

    def rebalance(self, state: _DriverState, tracer: Any) -> None:
        """Between-epoch decomposition change (after the commit)."""

    def world_snapshot(self) -> Any:
        """Picklable world state for the checkpoint's ``world``."""
        raise NotImplementedError

    def world_restore(self, snapshot: Any) -> None:
        raise NotImplementedError

    def shrink(
        self, state: _DriverState, dead: tuple[int, ...], failure: RankFailure
    ) -> tuple[int, ...]:
        """Re-decompose ``state`` over the survivors of ``dead`` and set
        ``state.nranks``; re-raise ``failure`` when they cannot carry
        the grids.  Returns the processors-per-grid for the record."""
        raise NotImplementedError

    def restore_seconds(self, policy: RecoveryPolicy, ckpt: Checkpoint) -> float:
        """Modeled cost of bringing ``ckpt`` back."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# the loop


class EpochRunner:
    """Runs a :class:`Workload` epoch by epoch on an execution backend.

    Pass a :class:`repro.obs.SpanTracer` to record per-rank span events
    for the measured epochs (warm-up is excluded, matching the paper's
    statistics).  With ``tracer=None`` (default) nothing is recorded
    and the simulated timings are bit-identical.

    Resilience parameters (all optional; defaults reproduce the
    historical infallible-machine behaviour exactly):

    fault_plan:
        A :class:`repro.machine.faults.FaultPlan`, a fault-spec string
        (``"rank=3@step=40"``), or a list of specs/strings.  ``step``
        triggers count *measured* timesteps (warm-up excluded); ``t``
        triggers are global measured virtual seconds; ``phase`` triggers
        count ``set_phase`` barriers over measured steps.
    checkpoint_every:
        Snapshot the full driver state every N measured steps.
        Checkpoint boundaries may fall inside an epoch; carried rows
        keep the run bit-identical either way.
    checkpoint_store:
        A :class:`repro.resilience.checkpoint.CheckpointStore` (or a
        directory path) that persists checkpoints to disk.  Without it,
        checkpoints stay in memory (still usable for recovery).
    recovery_policy:
        Modeled restore/repartition costs and the detection timeout
        (:class:`repro.resilience.recovery.RecoveryPolicy`).
    backend:
        Execution engine for the rank programs: a registry name
        (``"sim"``/``"mp"``) or an
        :class:`repro.backend.ExecutionBackend` instance.  The default
        ``"sim"`` runs on the deterministic discrete-event simulator,
        bit-identical to every release before backends existed.
        ``"mp"`` runs each rank as a real process with measured
        wall-clock accounting; physics outputs (step stats, IGBP
        counts) are identical, timings are measured rather than
        modeled.  Fault injection and the sanitizer require ``"sim"``.
    """

    #: Set by the public constructors below the seam.
    workload_type: type[Workload]

    def __init__(
        self,
        target: Any,
        tracer: Any = None,
        fault_plan: Any = None,
        checkpoint_every: int | None = None,
        checkpoint_store: Any = None,
        recovery_policy: RecoveryPolicy | None = None,
        sanitizer: Any = None,
        backend: str | ExecutionBackend = "sim",
    ) -> None:
        self.target = target
        self.backend = (
            backend
            if isinstance(backend, ExecutionBackend)
            else get_backend(backend)
        )
        if self.backend.measured:
            if sanitizer is not None:
                raise ValueError(
                    "the sanitizer needs the deterministic simulator; "
                    "run with backend='sim'"
                )
            if fault_plan:
                raise ValueError(
                    "fault injection needs the deterministic simulator; "
                    "run with backend='sim'"
                )
        self.tracer = tracer
        #: Optional :class:`repro.analysis.sanitizer.Sanitizer`.  Purely
        #: observational — threading it through every chunk (including
        #: warm-up and recovery re-runs) never perturbs virtual time.
        self.sanitizer = sanitizer
        if isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        elif isinstance(fault_plan, (list, tuple)):
            fault_plan = FaultPlan(fault_plan)
        self.fault_plan = fault_plan if fault_plan else None
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.checkpoint_every = checkpoint_every
        if isinstance(checkpoint_store, (str, Path)):
            checkpoint_store = CheckpointStore(checkpoint_store)
        self.checkpoint_store = checkpoint_store
        self.policy = recovery_policy or RecoveryPolicy()
        self._pending_faults: list[FaultSpec] = []
        self._steps_done = 0       # measured steps actually executed
        self._last_ckpt: Checkpoint | None = None

    # ------------------------------------------------------------------

    def _run(self) -> RunResult:
        wl = self.workload_type(self.target)
        state = _DriverState(
            step=wl.warmup_steps,
            nranks=wl.target.machine.nodes,
            carry=wl.initial_carry(),
        )
        # Warm-up: the paper's statistics exclude preprocessing, and the
        # first connectivity solve (everything searched from scratch) is
        # exactly that; these steps warm the nth-level-restart caches
        # and their metrics are discarded.  Warm-up is never traced,
        # never checkpointed and never faulted.
        if wl.warmup_steps:
            self._run_chunk(wl, state.carry, 0, wl.warmup_steps)
        self._last_ckpt = None
        if self.fault_plan is not None or getattr(self.backend, "elastic", False):
            # Implicit step-0 restore point: recovery works even before
            # the first periodic checkpoint (or with checkpointing off).
            # Elastic backends (cluster) get one too — their faults are
            # real node losses that arrive without any plan.
            self._last_ckpt = self._snapshot(wl, state)
        return self._main_loop(wl, state)

    def resume(self, checkpoint: Any) -> RunResult:
        """Continue a run from a checkpoint (path or
        :class:`Checkpoint`) of this driver's case.

        The resumed run's :class:`RunResult` covers the *whole* run —
        restored epochs plus the continuation — and, on the same
        processor count with no faults, is bit-identical to the
        uninterrupted run.
        """
        if isinstance(checkpoint, (str, Path)):
            checkpoint = Checkpoint.load(checkpoint)
        data = checkpoint.unpack()
        target = data["config"]
        if target.name != self.target.name:
            raise ValueError(
                f"checkpoint is for case {target.name!r}, "
                f"driver built for {self.target.name!r}"
            )
        self.target = target
        state: _DriverState = data["driver"]
        if self.tracer is not None and state.vt > 0:
            # Align the trace origin with the restored virtual time so
            # resumed spans continue the original timeline.
            self.tracer.advance(state.vt)
        self._last_ckpt = checkpoint
        wl = self.workload_type(target)
        wl.world_restore(data["world"])
        return self._main_loop(wl, state)

    def _main_loop(self, wl: Workload, state: _DriverState) -> RunResult:
        self._pending_faults = (
            list(self.fault_plan.faults) if self.fault_plan else []
        )
        self._steps_done = 0
        last = wl.warmup_steps + wl.target.nsteps
        while state.step < last or state.epoch is not None:
            try:
                self._advance(wl, state, last)
            except RankFailure as failure:
                state = self._recover(wl, state, failure)
        return wl.result_type(
            case=wl.target.name,
            machine=wl.target.machine.name,
            nprocs=wl.target.machine.nodes,
            nsteps=wl.target.nsteps,
            epochs=state.epochs,
            recoveries=state.recoveries,
            wall_elapsed=state.vt,
        )

    def _advance(self, wl: Workload, state: _DriverState, last: int) -> None:
        """Run one sub-chunk; commit the epoch when it completes."""
        tracer = self.tracer
        if state.epoch is None:
            planned = wl.plan_epoch(state, last - state.step, tracer)
            state.epoch = _EpochAccum(
                nranks=state.nranks, first_step=state.step, planned=planned
            )
        acc = state.epoch
        epoch_end = acc.first_step + acc.planned
        chunk_end = epoch_end
        if self.checkpoint_every:
            k = self.checkpoint_every
            measured = state.step - wl.warmup_steps
            next_ckpt = wl.warmup_steps + (measured // k + 1) * k
            chunk_end = min(chunk_end, next_ckpt)
        nsteps = chunk_end - state.step

        # Carried rows (clocks and counters) continue a split epoch exactly.
        out = self._run_chunk(
            wl, state.carry, state.step, nsteps,
            tracer=tracer,
            fault_plan=self._chunk_fault_plan(wl, state, nsteps),
            initial_metrics=acc.rows,
        )
        acc.add(out, nsteps)
        state.step = chunk_end
        self._steps_done += nsteps

        if state.step == epoch_end:
            epoch = wl.finish_epoch(state.carry, acc)
            state.epochs.append(epoch)
            state.epoch = None
            if tracer is not None:
                tracer.advance(epoch.elapsed)
            state.vt += epoch.elapsed
            wl.rebalance(state, tracer)

        if (
            self.checkpoint_every
            and (state.step - wl.warmup_steps) % self.checkpoint_every == 0
            and state.step < last
        ):
            ckpt = self._snapshot(wl, state)
            self._last_ckpt = ckpt
            if self.checkpoint_store is not None:
                self.checkpoint_store.write(ckpt)
            if tracer is not None:
                tracer.mark(
                    0.0, "checkpoint",
                    step=state.step - wl.warmup_steps,
                    nbytes=ckpt.nbytes,
                )

    def _run_chunk(
        self, wl: Workload, carry: Any, first_step: int, nsteps: int,
        **run_kwargs: Any,
    ) -> BackendResult:
        out = wl.run_chunk(
            self.backend, carry, first_step, nsteps,
            sanitizer=self.sanitizer, **run_kwargs,
        )
        # Catch up with the ranks' private copies (a no-op on sim).
        wl.world.advance((first_step + nsteps) * wl.target.dt)
        return out

    # ------------------------------------------------------------------
    # fault plumbing

    def _chunk_fault_plan(
        self, wl: Workload, state: _DriverState, nsteps: int
    ) -> FaultPlan | None:
        """Translate pending driver-level faults into chunk-local triggers."""
        if not self._pending_faults:
            return None
        specs = []
        for f in self._pending_faults:
            if f.rank >= state.nranks:
                continue  # rank id no longer exists after a shrink
            if f.step is not None:
                abs_step = wl.warmup_steps + f.step
                if state.step <= abs_step < state.step + nsteps:
                    specs.append(FaultSpec(
                        rank=f.rank,
                        phase_index=PHASES_PER_STEP * (abs_step - state.step),
                    ))
            elif f.time is not None:
                specs.append(FaultSpec(
                    rank=f.rank, time=max(0.0, f.time - state.vt)
                ))
            else:
                local = f.phase_index - PHASES_PER_STEP * self._steps_done
                if 0 <= local < PHASES_PER_STEP * nsteps:
                    specs.append(FaultSpec(rank=f.rank, phase_index=local))
        return FaultPlan(specs) if specs else None

    def _recover(
        self, wl: Workload, state: _DriverState, failure: RankFailure
    ) -> _DriverState:
        """Detection -> restore -> shrink; returns the new state."""
        tracer = self.tracer
        policy = self.policy
        old_n = state.nranks
        step_failed = state.step - wl.warmup_steps

        if len(state.recoveries) >= policy.max_recoveries:
            raise failure
        ckpt = self._last_ckpt
        if ckpt is None:
            raise failure  # no restore point: surface the failure

        # 1. The timeline reaches the failure point (failure.time is
        # epoch-local; the tracer offset sits at the epoch origin).
        vt_fail = state.vt + failure.time
        if tracer is not None:
            tracer.advance(failure.time)
            tracer.mark(
                0.0, "recovery",
                failed_ranks=list(failure.failed_ranks),
                step=step_failed,
            )

        # 2. Failure detection: survivors agree on the dead set.
        dead, t_detect = run_failure_detection(
            wl.target.machine.with_nodes(old_n),
            failure.failed_ranks,
            tracer=tracer,
            timeout=policy.detection_timeout,
            sanitizer=self.sanitizer,
        )
        if tracer is not None:
            tracer.advance(t_detect)
        dead_set = set(dead)
        self._pending_faults = [
            f for f in self._pending_faults if f.rank not in dead_set
        ]

        # 3. Bring the last checkpoint back.  A restored partial epoch
        # ran under the pre-failure decomposition; the shrink forces an
        # epoch boundary, so commit it as a short epoch (its spans
        # already sit at the right timeline position).
        data = ckpt.unpack()
        restored: _DriverState = data["driver"]
        restored.recoveries = state.recoveries  # superset of checkpointed
        if restored.epoch is not None and restored.epoch.steps_done > 0:
            restored.epochs.append(
                wl.finish_epoch(restored.carry, restored.epoch)
            )
        restored.epoch = None

        # 4. Shrink onto the survivors, renumbered contiguously (ULFM
        # shrink) — or give up when they cannot carry the grids.
        procs_per_grid = wl.shrink(restored, dead, failure)
        wl.world_restore(data["world"])

        t_restore = wl.restore_seconds(policy, ckpt)
        driver_span(
            tracer, (r for r in range(old_n) if r not in dead_set),
            "restore", t_restore,
        )
        t_rep = policy.repartition_seconds
        driver_span(tracer, range(restored.nranks), "repartition", t_rep)
        restored.vt = vt_fail + t_detect + t_restore + t_rep

        record = RecoveryRecord(
            failed_ranks=dead,
            nprocs_before=old_n,
            nprocs_after=restored.nranks,
            step_failed=step_failed,
            step_restored=restored.step - wl.warmup_steps,
            t_failure=vt_fail,
            t_detect=t_detect,
            t_restore=t_restore,
            t_repartition=t_rep,
            checkpoint_bytes=ckpt.nbytes,
            procs_per_grid=procs_per_grid,
        )
        restored.recoveries.append(record)
        if tracer is not None:
            tracer.mark(
                0.0, "recovered",
                step=record.step_restored,
                nprocs=restored.nranks,
                procs_per_grid=list(procs_per_grid),
            )

        # The post-recovery state is the new restore point: any later
        # failure must not resurrect the dead ranks.
        self._last_ckpt = self._snapshot(wl, restored)
        if self.checkpoint_store is not None:
            self.checkpoint_store.write(self._last_ckpt)
        return restored

    # ------------------------------------------------------------------
    # checkpointing

    def _snapshot(self, wl: Workload, state: _DriverState) -> Checkpoint:
        """Serialise the full driver state (deep-copy semantics)."""
        meta = {
            "case": wl.target.name,
            "machine": wl.target.machine.name,
            "step": state.step,
            "measured_step": state.step - wl.warmup_steps,
            "nprocs": state.nranks,
            "vt": state.vt + (state.epoch.base if state.epoch else 0.0),
            "recoveries": len(state.recoveries),
        }
        return Checkpoint.pack(meta, {
            "config": wl.target,
            "driver": state,
            "world": wl.world_snapshot(),
        })


# ----------------------------------------------------------------------
# dispatch


def build_driver(
    target: Any,
    tracer: Any = None,
    sanitizer: Any = None,
    backend: str | ExecutionBackend = "sim",
    **resilience: Any,
) -> "OverflowD1 | OffBodyDriver":
    """The driver for a case object: :class:`repro.core.OverflowD1`
    for a :class:`CaseConfig`, :class:`repro.offbody.OffBodyDriver` for
    an :class:`OffBodyCase`.  ``resilience`` takes the runner's
    ``fault_plan`` / ``checkpoint_every`` / ``checkpoint_store`` /
    ``recovery_policy``."""
    options = dict(
        tracer=tracer, sanitizer=sanitizer, backend=backend, **resilience
    )
    # Imported here: both modules import this one, and a near-body run
    # has no use for the off-body subsystem.
    if isinstance(target, CaseConfig):
        from repro.core.overflow_d1 import OverflowD1

        return OverflowD1(target, **options)
    from repro.offbody.driver import OffBodyDriver

    return OffBodyDriver(target, **options)


def resume_run(checkpoint: Any, **options: Any) -> RunResult:
    """Resume a run from a checkpoint object, file or directory (the
    newest checkpoint in it).

    Convenience wrapper: reads the case out of the checkpoint, builds
    its driver (``options`` as for :func:`build_driver`) and continues.
    Used by ``repro resume``.
    """
    if isinstance(checkpoint, (str, Path)):
        checkpoint = Checkpoint.load(checkpoint)
    target = pickle.loads(checkpoint.sections["config"])
    return build_driver(target, **options).resume(checkpoint)
