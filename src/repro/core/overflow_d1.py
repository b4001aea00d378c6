"""The OVERFLOW-D1 performance driver: the near-body workload.

Each rank owns one subdomain of one component grid.  Per timestep (the
loop itself is :func:`repro.core.runner.timestep_program`) it charges
the work-model arithmetic for its subdomain, exchanges halo faces with
its neighbours on the same grid (one round per factored sweep
direction), charges the rigid-transform update when its grid moves,
and runs the real distributed DCF3D protocol
(:mod:`repro.connectivity.dcf`) over the IGBPs it owns, producing
per-rank received-IGBP counts I(p) and walk-step work.

Dynamic load balancing (Algorithm 2) happens between *epochs*: the
driver simulates ``lb_check_interval`` timesteps, inspects the
accumulated I(p), and — when f0 is finite and some processor exceeds it
— rebuilds the partition and continues.  Virtual time accumulates
across epochs.

The epoch loop — chunking, checkpoints, fault plans, elastic recovery
— is :class:`repro.core.runner.EpochRunner`; this module is its
near-body :class:`~repro.core.runner.Workload` and public constructor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.backend import BackendResult, ExecutionBackend
from repro.connectivity.dcf import DcfConfig, DcfWorld, dcf_rank_program
from repro.connectivity.holecut import cut_holes
from repro.connectivity.igbp import find_igbps
from repro.connectivity.restart import RestartCache
from repro.core.config import CaseConfig
from repro.core.runner import (
    PHASE_DCF,
    PHASE_FLOW,
    PHASE_MOTION,
    EpochResult,
    EpochRunner,
    MovingWorld,
    RankLoad,
    RunResult,
    StepStats,
    Workload,
    _DriverState,
    _EpochAccum,
    resume_run,
    timestep_program,
)
from repro.grids.subdomain import interior_face_points
from repro.machine.faults import RankFailure
from repro.partition.assignment import Partition, build_partition
from repro.partition.dynamic_lb import DynamicRebalancer

__all__ = [
    "OverflowD1", "RunResult", "EpochResult", "StepStats", "resume_run",
    "PHASE_FLOW", "PHASE_MOTION", "PHASE_DCF",
]


class _WorldState(MovingWorld):
    """The near-body grids; a grid's holes and IGBPs are prepared when
    the first of its ranks asks for them, inside DCF3D."""

    def __init__(self, config: CaseConfig) -> None:
        self.config = config
        super().__init__(config.grids, config.motions)

    def own_igbps(
        self, partition: Partition, rank: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(flat ids, coordinates) of the IGBPs this rank owns."""
        gi = partition.grid_of_rank(rank)
        box = partition.subdomain_of(rank).box
        s = self.memo.get(gi)
        if s is None:
            iblank = cut_holes(self.grids, receivers=(gi,))[gi]
            s = self.memo[gi] = find_igbps(
                self.grids[gi], gi, iblank, self.config.fringe_layers
            )
        if s.count == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros((0, self.grids[0].ndim)),
            )
        multi = np.stack(
            np.unravel_index(s.flat_indices, self.grids[gi].dims), axis=-1
        )
        mine = np.all((multi >= box.lo) & (multi < box.hi), axis=1)
        return s.flat_indices[mine], s.points[mine]


def _halo_neighbors(partition: Partition) -> list[list[tuple[int, int]]]:
    """Per rank: (neighbour rank, shared face points) on the same grid."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(partition.nprocs)]
    for gi in range(partition.ngrids):
        ranks = partition.ranks_of_grid(gi)
        for a in ranks:
            for b in ranks:
                if b <= a:
                    continue
                shared = _shared_face(
                    partition.subdomain_of(a).box, partition.subdomain_of(b).box
                )
                if shared > 0:
                    out[a].append((b, shared))
                    out[b].append((a, shared))
    return out


def _shared_face(a, b) -> int:
    """Points on the face shared by two abutting boxes (0 if not)."""
    touch_axis = None
    overlap = 1
    for d in range(a.ndim):
        if a.hi[d] == b.lo[d] or b.hi[d] == a.lo[d]:
            if touch_axis is not None:
                return 0  # touch along two axes: edge, not face
            touch_axis = d
        else:
            lo = max(a.lo[d], b.lo[d])
            hi = min(a.hi[d], b.hi[d])
            if hi <= lo:
                return 0
            overlap *= hi - lo
    return overlap if touch_axis is not None else 0


def _near_body_program(
    comm, *, cfg, world, partition, cache, neighbors, dcf_cfg,
    grid_of_rank, rank_boxes, ranks_of_grid, first_step, nsteps,
):
    """One near-body rank for one chunk: the timestep loop over its
    subdomain, with DCF3D as the connectivity exchange.

    A module-level function over plain data, so ``functools.partial``
    of it pickles whole: a node on another host rebuilds it by import,
    and ``world`` and ``cfg`` (which it references) arrive as one
    object graph.
    """
    rank = comm.rank
    gi = grid_of_rank[rank]
    grid0 = cfg.grids[gi]
    box = rank_boxes[rank]
    own_pts = box.npoints
    load = RankLoad(
        points=own_pts,
        flow_flops=cfg.work.flow_flops(
            own_pts, grid0.viscous, grid0.turbulence, grid0.ndim
        ),
        halo=neighbors[rank],
        moves=gi in cfg.motions,
        strip=min(0.9, interior_face_points(box, grid0.dims) / max(1, own_pts)),
    )

    def exchange(step):
        dcf_world = DcfWorld(
            grid_xyz=[g.xyz for g in world.grids],
            grid_of_rank=grid_of_rank,
            rank_boxes=rank_boxes,
            ranks_of_grid=ranks_of_grid,
            config=dcf_cfg,
            work=cfg.work,
        )
        flat, pts = world.own_igbps(partition, rank)
        _, cstats = yield from dcf_rank_program(comm, dcf_world, flat, pts, cache)
        return StepStats(
            step, cstats.igbps_received, cstats.search_steps,
            cstats.donors_found, cstats.orphans,
        )

    stats = yield from timestep_program(
        comm, load, world, cfg.work, cfg.dt,
        range(first_step, first_step + nsteps), exchange,
        cfg.overlap_halo,
    )
    return stats, cache


@dataclass
class _NearBodyCarry:
    """What a near-body run carries from epoch to epoch."""

    partition: Partition
    rebalancer: DynamicRebalancer
    #: One cache shared by all ranks: restart data lives with the IGBPs
    #: (keyed by receiver grid + point id), so it survives
    #: repartitioning just as block data redistributed by a real
    #: dynamic rebalance would.
    cache: RestartCache | None


class _NearBody(Workload):
    """Near-body grids, each decomposed over its own processor group."""

    #: The first connectivity solve searches everything from scratch —
    #: preprocessing the paper's statistics exclude.
    warmup_steps = 1

    def __init__(self, target: CaseConfig) -> None:
        super().__init__(target)
        self.world = _WorldState(target)

    def _grid_dims(self) -> list[tuple[int, ...]]:
        return [g.dims for g in self.target.grids]

    def initial_carry(self) -> _NearBodyCarry:
        cfg = self.target
        return _NearBodyCarry(
            partition=build_partition(self._grid_dims(), cfg.machine.nodes),
            rebalancer=DynamicRebalancer(
                f0=cfg.f0, check_interval=cfg.lb_check_interval
            ),
            cache=RestartCache() if cfg.use_restart else None,
        )

    def plan_epoch(self, state: _DriverState, remaining: int, tracer: Any) -> int:
        cfg = self.target
        planned = (
            remaining
            if math.isinf(cfg.f0)
            else min(cfg.lb_check_interval, remaining)
        )
        if tracer is not None:
            tracer.mark(
                0.0, "epoch",
                first_step=state.step - self.warmup_steps,
                nsteps=planned,
                procs_per_grid=list(state.carry.partition.procs_per_grid),
            )
        return planned

    def finish_epoch(self, carry: _NearBodyCarry, acc: _EpochAccum) -> EpochResult:
        epoch = EpochResult(partition=carry.partition, **acc.totals())
        carry.rebalancer.record_epoch(epoch.igbp)
        return epoch

    def rebalance(self, state: _DriverState, tracer: Any) -> None:
        carry: _NearBodyCarry = state.carry
        new = carry.rebalancer.maybe_rebalance(carry.partition, state.step)
        if new is not None:
            carry.partition = new
            if tracer is not None:
                tracer.mark(
                    0.0, "rebalance",
                    step=state.step - self.warmup_steps,
                    procs_per_grid=list(new.procs_per_grid),
                )

    def shrink(
        self, state: _DriverState, dead: tuple[int, ...], failure: RankFailure
    ) -> tuple[int, ...]:
        n_new = state.nranks - len(dead)
        if n_new < len(self.target.grids):
            # Not enough survivors to give every grid a processor.
            raise failure
        # Algorithm 1 over the surviving processor set.
        partition = build_partition(
            self._grid_dims(), state.nranks, exclude_ranks=dead
        )
        state.carry.partition = partition
        state.nranks = n_new
        return partition.procs_per_grid

    # ------------------------------------------------------------------

    def run_chunk(
        self,
        backend: ExecutionBackend,
        carry: _NearBodyCarry,
        first_step: int,
        nsteps: int,
        **run_kwargs: Any,
    ) -> BackendResult:
        """Simulate ``nsteps`` timesteps at a fixed partition.

        Every rank returns its step stats and the restart cache it
        searched with.  Under the simulator that is the driver's own
        cache; a real-process rank returns its private copy, which the
        driver merges (ownership of IGBP points is disjoint within a
        chunk, so the union equals the shared cache's content at every
        read point — the backend-equivalence tests pin this).
        """
        cfg = self.target
        partition = carry.partition
        cache = carry.cache
        nprocs = partition.nprocs
        base_hits = cache.hits if cache is not None else 0
        base_misses = cache.misses if cache is not None else 0
        program = functools.partial(
            _near_body_program, cfg=cfg, world=self.world,
            partition=partition, cache=cache,
            neighbors=_halo_neighbors(partition),
            dcf_cfg=DcfConfig(search_lists=cfg.search_lists),
            grid_of_rank=[partition.grid_of_rank(r) for r in range(nprocs)],
            rank_boxes=[partition.subdomain_of(r).box for r in range(nprocs)],
            ranks_of_grid={
                gi: partition.ranks_of_grid(gi)
                for gi in range(partition.ngrids)
            },
            first_step=first_step, nsteps=nsteps,
        )

        out = backend.run(
            cfg.machine.with_nodes(nprocs), [program] * nprocs, **run_kwargs
        )
        returns = []
        for stats, rank_cache in out.returns:
            returns.append(stats)
            if cache is not None and rank_cache is not cache:
                cache.merge(
                    rank_cache, base_hits=base_hits, base_misses=base_misses
                )
        out.returns = returns
        return out


class OverflowD1(EpochRunner):
    """Run a :class:`CaseConfig` on N simulated nodes.

    Parameters are :class:`repro.core.runner.EpochRunner`'s: ``config,
    tracer, fault_plan, checkpoint_every, checkpoint_store, sanitizer,
    backend``.
    """

    workload_type = _NearBody

    # Defined per driver: the typed entry point, and the seam
    # benchmarks/perf wraps by name.
    def run(self) -> RunResult:
        return self._run()
