"""The off-body adaptive Cartesian workload (paper section 5, Algorithm 3).

Runs a multi-body :class:`OffBodyCase` on a simulated (or real-process)
machine.  The epoch loop and the timestep are the ones every driver
runs (:mod:`repro.core.runner`); this module is their off-body
:class:`~repro.core.runner.Workload`: each rank's load and its
connectivity exchange.  The grid population is *dynamic*: every
``adapt_interval`` steps the workload regenerates the off-body
Cartesian patch layout around the moved near-body grids
(``offbody:regen`` trace phase) and re-runs the Algorithm 3 grouping
that packs patches into connectivity-local, load-balanced groups, one
group per off-body rank (``offbody:group``).

Rank layout
-----------
With ``m`` near-body grids on an ``N``-node machine, near-body grid
``g`` runs on rank ``g`` and off-body group ``k`` on rank ``m + k``
(so ``ngroups = N - m``; ``N >= m + 1`` is required).  Because groups
are sized to the rank count, Algorithm 1 over the grouped unit sizes
degenerates to one processor per unit — the driver still runs
:func:`repro.partition.static_balance` each epoch and records its
achieved tolerance ``tau`` as the balance report.  The per-epoch
*regrouping* is this layer's dynamic load balancing: churned patches
are re-packed instead of migrated.

Communication
-------------
Donor exchange follows the DCF request/reply shape: the receiver rank
sends one request per donor relation (``igbp_request_bytes`` per
point), the donor rank answers (``donor_reply_bytes`` per point).
Patch-to-patch donors are closed-form Cartesian lookups; patch-fringe
points inside a near-body grid run the stencil-walk
:func:`repro.connectivity.donor_search` once per distinct point (all
charged in walk steps); near-body outer points locate for free.  All
message schedules are derived from one globally sorted relation list,
so every (src, dst, tag) channel sees the same order on both ends.

Determinism: the whole step is a pure function of (case, step index),
so the real-process backends reproduce the sim backend's physics
byte-for-byte — pinned by the backend-equivalence tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Sequence, cast

import numpy as np

from repro.backend import BackendResult, ExecutionBackend
from repro.connectivity.donorsearch import donor_search
from repro.core.runner import (
    EpochResult,
    EpochRunner,
    MovingWorld,
    RankLoad,
    RunResult,
    StepStats,
    Workload,
    _DriverState,
    _EpochAccum,
    driver_span,
    timestep_program,
)
from repro.grids.bbox import AABB
from repro.grids.structured import CurvilinearGrid
from repro.machine.faults import RankFailure
from repro.machine.spec import MachineSpec
from repro.offbody.manager import OffBodyLayout, OffBodyManager
from repro.offbody.patches import finest_containing, fringe_points
from repro.partition.grouping import (
    GroupingResult,
    group_grids,
    round_robin_grids,
)
from repro.partition.static_lb import static_balance
from repro.solver.workmodel import WorkModel

TAG_OB_REQ = 402
TAG_OB_DONOR = 403

PHASE_REGEN = "offbody:regen"
PHASE_GROUP = "offbody:group"

#: Modeled cost of rebuilding the patch layout (per patch point) and of
#: the grouping pass (per connectivity edge + patch) — charged as
#: driver-level spans between epochs, like restore/repartition.
REGEN_FLOPS_PER_POINT = 12.0
GROUP_FLOPS_PER_EDGE = 40.0

GROUPING_STRATEGIES = ("algorithm3", "roundrobin")


@dataclass
class OffBodyCase:
    """A multi-body adaptive off-body case, fully described by data."""

    name: str
    machine: MachineSpec
    near_body: tuple[CurvilinearGrid, ...]
    #: near-body grid index -> prescribed motion (missing = static).
    motions: dict[int, Any]
    domain: AABB
    base_extent: float
    points_per_patch: int = 5
    max_level: int = 2
    margin: float = 0.0
    max_brick_cells: int = 3
    nsteps: int = 4
    dt: float = 0.05
    adapt_interval: int = 2
    grouping: str = "algorithm3"
    work: WorkModel = field(default_factory=WorkModel)

    def __post_init__(self) -> None:
        if not self.near_body:
            raise ValueError("need at least one near-body grid")
        if self.grouping not in GROUPING_STRATEGIES:
            raise ValueError(
                f"unknown grouping {self.grouping!r}; "
                f"choose from {GROUPING_STRATEGIES}"
            )
        if self.machine.nodes < len(self.near_body) + 1:
            raise ValueError(
                f"need >= {len(self.near_body) + 1} nodes "
                f"({len(self.near_body)} near-body grids + 1 off-body "
                f"group), machine has {self.machine.nodes}"
            )
        if self.adapt_interval < 1:
            raise ValueError("adapt_interval must be >= 1")

    @property
    def n_near(self) -> int:
        return len(self.near_body)

    def make_manager(self) -> OffBodyManager:
        return OffBodyManager(
            self.domain,
            self.base_extent,
            points_per_patch=self.points_per_patch,
            max_level=self.max_level,
            margin=self.margin,
            max_brick_cells=self.max_brick_cells,
        )


# ----------------------------------------------------------------------
# results


@dataclass
class OffBodyEpoch(EpochResult):
    """One adapt epoch: fixed patch layout + grouping, N timesteps."""

    strategy: str
    grouping: GroupingResult
    npatches: int
    created: int
    destroyed: int
    level_counts: dict[int, int]
    #: Donor points crossing a group boundary under this grouping.
    cut_points: int
    intra_edges: int
    cut_edges: int
    #: Algorithm-1 achieved tolerance over the grouped unit sizes.
    balance_tau: float
    donors_total: int
    #: Per-step I(p) rows (tuples of ints, one per rank) — the raw
    #: series behind :attr:`igbp`, kept for the physics signature.
    per_step_igbp: list[tuple[int, ...]] = field(default_factory=list)

    def summary(self) -> dict[str, Any]:
        """Patch/grouping statistics as a plain dict: one row of a BENCH
        payload's ``simulated.offbody.epochs``."""
        return {
            "first_step": self.first_step,
            "npatches": self.npatches,
            "created": self.created,
            "destroyed": self.destroyed,
            "cut_points": self.cut_points,
            "cut_edges": self.cut_edges,
            "intra_edges": self.intra_edges,
            "balance_tau": self.balance_tau,
        }


@dataclass
class OffBodyRunResult(RunResult):
    """Merged outcome of a full off-body run."""

    epochs: Sequence[OffBodyEpoch] = field(default_factory=list)

    @property
    def partition_history(self) -> list[tuple[int, tuple[int, ...]]]:
        """(first step, points per group) per epoch — the off-body
        analogue of the near-body driver's procs-per-grid history."""
        return [(e.first_step, e.grouping.group_points) for e in self.epochs]

    def physics_signature(self) -> dict[str, Any]:
        """Canonical backend-independent physics digest.

        Everything here is derived from integer connectivity counts and
        the deterministic layout/grouping — identical across sim and mp
        backends byte-for-byte (asserted by the backend tests via
        canonical JSON).
        """
        return {
            "case": self.case,
            "nsteps": self.nsteps,
            "epochs": [
                {
                    "first_step": e.first_step,
                    "npatches": e.npatches,
                    "created": e.created,
                    "destroyed": e.destroyed,
                    "levels": {str(k): v for k, v in sorted(e.level_counts.items())},
                    "group_of": list(e.grouping.group_of),
                    "cut_points": e.cut_points,
                    "igbp_per_step": [list(row) for row in e.per_step_igbp],
                    "search_steps": e.search_steps_total,
                    "donors": e.donors_total,
                    "orphans": e.orphans_total,
                }
                for e in self.epochs
            ],
        }


# ----------------------------------------------------------------------
# world state


@dataclass
class _StepConn:
    """Near-body coupling for one step (pure function of time+layout)."""

    #: (patch, nb grid) -> patch fringe points donated by the nb grid.
    w_pn: dict[tuple[int, int], int]
    #: (nb grid, patch) -> nb outer-boundary points donated by the patch.
    w_np: dict[tuple[int, int], int]
    #: nb grid -> stencil-walk steps charged for every patch-fringe row.
    search_steps: dict[int, int]
    #: patch -> fringe points in the hole region with no donor.
    orphans_p: dict[int, int]
    #: nb grid -> outer points with no patch donor inside the domain.
    orphans_n: dict[int, int]


class _OffBodyWorld(MovingWorld):
    """Near-body poses + per-step connectivity versus the patch layout,
    computed once per (pose, layout epoch)."""

    def __init__(self, case: OffBodyCase) -> None:
        self.case = case
        super().__init__(case.near_body, case.motions)

    def body_boxes(self) -> list[AABB]:
        return [g.bounding_box() for g in self.grids]

    def connectivity(self, layout: OffBodyLayout) -> _StepConn:
        if layout.epoch not in self.memo:
            self.memo[layout.epoch] = _step_connectivity(
                self.grids, layout, self.case.domain
            )
        return self.memo[layout.epoch]

    def donor_exchange(self, plan: _EpochPlan) -> list[tuple[int, int, int]]:
        """:func:`_donor_exchange` at the current poses, once per step for
        all ranks (the memo keeps ``plan`` alive, so ``is`` is safe)."""
        hit = self.memo.get("exchange")
        if hit is None or hit[0] is not plan:
            conn = self.connectivity(plan.layout)
            hit = self.memo["exchange"] = (plan, _donor_exchange(plan, conn))
        return hit[1]


def _distinct_rows(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, twin)``: the first row of each distinct byte pattern in
    order of first occurrence, and per row its pattern's position in
    ``first`` (``pts[first][twin]`` is ``pts``; ``-0.0`` and ``0.0``
    differ).  :func:`donor_search` of ``pts[first]`` scattered by
    ``twin`` is that of ``pts`` because the search is row-wise: twins
    share their seed (a per-row argmin), cell and active flag at every
    walk iteration, so they are in the same walk states, and a twin
    cannot change the batch-wide Newton exit (``abs(r).max()``), a
    probe block's ``_may_hit(...).any()``, the retry set or the
    iteration at which a walk state repeats.
    """
    rows = np.ascontiguousarray(pts).view(f"V{pts.itemsize * pts.shape[1]}")
    _, first, inverse = np.unique(rows.ravel(), return_index=True, return_inverse=True)
    return np.sort(first), np.argsort(np.argsort(first))[inverse]


def _step_connectivity(
    nb_grids: list[CurvilinearGrid],
    layout: OffBodyLayout,
    domain: AABB,
) -> _StepConn:
    """Hole cutting + donor search between patches and near-body grids."""
    w_pn: dict[tuple[int, int], int] = {}
    w_np: dict[tuple[int, int], int] = {}
    search_steps: dict[int, int] = {}
    orphans_p: dict[int, int] = {}
    orphans_n: dict[int, int] = {}

    patch_boxes = [g.bounding_box() for g in layout.grids]
    # Fringe points per patch, built once and shared by every nb grid.
    fringes: dict[int, np.ndarray] = {}
    # Per near-body grid: the patches inside its box, the patch of each
    # fringe point in it, those points and their distinct rows.
    per_grid = []
    for g in nb_grids:
        nb_box = g.bounding_box()
        near = [pi for pi, box in enumerate(patch_boxes) if box.intersects(nb_box)]
        for pi in near:
            if pi not in fringes:
                fringes[pi] = fringe_points(layout.grids[pi])
        chunks = [fringes[pi][nb_box.contains(fringes[pi])] for pi in near]
        owner = np.repeat(np.array(near, dtype=np.int64), [len(c) for c in chunks])
        allpts = np.concatenate([np.zeros((0, g.ndim)), *chunks])
        per_grid.append((near, owner, allpts, *_distinct_rows(allpts)))

    # ONE stencil-walk donor search per step: each near-body grid's
    # distinct fringe points are one batch on that grid.
    sizes = [len(first) for *_, first, _ in per_grid]
    res = donor_search(
        [g.xyz for g in nb_grids],
        np.concatenate([pts[first] for _, _, pts, first, _ in per_grid]),
        batch=np.repeat(np.arange(len(sizes)), sizes),
    ).split(sizes)

    for gi, (g, (near, owner, allpts, _, twin)) in enumerate(zip(nb_grids, per_grid)):
        wall_pts = [g.face_points(b.face).reshape(-1, g.ndim) for b in g.wall_faces()]
        wall_box = None
        if wall_pts:
            raw = AABB.of_points(np.concatenate(wall_pts))
            # Same shrink rule as connectivity.holecut: the wall-point
            # box overestimates the solid, pull it in a little.
            shrink = -0.02 * float(raw.extent.max())
            wall_box = raw.inflated(shrink) if np.all(raw.extent + 2 * shrink > 0) else raw

        # The search results split back per patch.
        if len(owner):
            found = res[gi].found[twin]
            # Charged per row: the machine still serves every fringe.
            search_steps[gi] = int(res[gi].steps[twin].sum())
            lost = ~found & (wall_box.contains(allpts) if wall_box is not None else False)
            nfound, nlost = (
                np.bincount(owner, x, minlength=len(patch_boxes)) for x in (found, lost)
            )
            for pi in near:
                if nfound[pi]:
                    w_pn[(pi, gi)] = int(nfound[pi])
                if nlost[pi]:
                    orphans_p[pi] = orphans_p.get(pi, 0) + int(nlost[pi])

        # Near-body outer boundary points interpolate from the finest
        # containing patch — closed-form Cartesian lookup, zero walk.
        outer = [
            g.face_points(b.face).reshape(-1, g.ndim)
            for b in g.boundaries
            if b.kind == "overset"
        ]
        if not outer:
            continue
        opts = np.concatenate(outer)
        best = finest_containing(
            opts, layout.patches, patch_boxes, range(len(layout.patches))
        )
        for pi in np.unique(best[best >= 0]):
            w_np[(gi, int(pi))] = int(np.sum(best == pi))
        nlost = int(np.sum((best < 0) & domain.contains(opts)))
        if nlost:
            orphans_n[gi] = nlost

    return _StepConn(
        w_pn=w_pn, w_np=w_np, search_steps=search_steps,
        orphans_p=orphans_p, orphans_n=orphans_n,
    )


# ----------------------------------------------------------------------
# workload internals


@dataclass
class _EpochPlan:
    """Everything fixed for one adapt epoch's rank programs."""

    layout: OffBodyLayout
    grouping: GroupingResult
    strategy: str
    nranks: int
    n_near: int
    balance_tau: float

    def owner_of_patch(self, pi: int) -> int:
        return self.n_near + self.grouping.group_of[pi]

    def owned_patches(self, rank: int) -> list[int]:
        if rank < self.n_near:
            return []
        return self.grouping.members(rank - self.n_near)


def _donor_exchange(
    plan: _EpochPlan, conn: _StepConn
) -> list[tuple[int, int, int]]:
    """Donor traffic for one step, merged per rank pair.

    Returns sorted ``(recv_rank, donor_rank, points)`` triples — all
    donor relations between two ranks coalesce into one request and one
    reply message (the merged-sends protocol), including the intra-rank
    entries (no message, but counted in I(p) and service work).
    """
    agg: dict[tuple[int, int], int] = {}

    def add(recv_r: int, donor_r: int, w: int) -> None:
        agg[(recv_r, donor_r)] = agg.get((recv_r, donor_r), 0) + w

    for (i, j), w in plan.layout.weights.items():
        add(plan.owner_of_patch(i), plan.owner_of_patch(j), w)
    for (pi, gi), w in conn.w_pn.items():
        add(plan.owner_of_patch(pi), gi, w)
    for (gi, pi), w in conn.w_np.items():
        add(gi, plan.owner_of_patch(pi), w)
    return sorted((r, d, w) for (r, d), w in agg.items())


def _halo_partners(plan: _EpochPlan) -> list[list[tuple[int, int]]]:
    """Per rank: (neighbour rank, halo points) across group boundaries."""
    vol: dict[tuple[int, int], int] = {}
    w = plan.layout.weights
    for i, j in sorted(plan.layout.edges):
        a, b = plan.owner_of_patch(i), plan.owner_of_patch(j)
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        pts = w.get((i, j), 0) + w.get((j, i), 0)
        vol[key] = vol.get(key, 0) + pts
    out: list[list[tuple[int, int]]] = [[] for _ in range(plan.nranks)]
    for (a, b), pts in sorted(vol.items()):
        if pts > 0:
            out[a].append((b, pts))
            out[b].append((a, pts))
    return out


def _off_body_program(comm, *, case, world, plan, halo, first_step, nsteps):
    """One rank of an off-body chunk: a near-body grid (rank
    ``< n_near``) or an off-body patch group, stepping with the donor
    exchange as its connectivity phase (``functools.partial`` of it
    is the picklable rank program)."""
    work = case.work
    rank = comm.rank
    mine = plan.owned_patches(rank)
    if rank < plan.n_near:
        grid0 = case.near_body[rank]
        own_pts = grid0.npoints
        flow_flops = work.flow_flops(
            own_pts, grid0.viscous, grid0.turbulence, grid0.ndim
        )
    else:
        own_pts = sum(plan.layout.sizes[pi] for pi in mine)
        # Patch grids are inviscid background Cartesian blocks.
        flow_flops = work.flow_flops(own_pts, False, False, case.domain.ndim)
    load = RankLoad(own_pts, flow_flops, halo[rank], moves=rank in case.motions)

    def exchange(step):
        conn = world.connectivity(plan.layout)
        pairs = world.donor_exchange(plan)
        my_out = [(d, w) for r, d, w in pairs if r == rank and d != rank]
        my_in = [(r, w) for r, d, w in pairs if d == rank and r != rank]
        received = sum(w for r, _d, w in pairs if r == rank)
        served = sum(w for _r, d, w in pairs if d == rank)
        # Requests out (I am the receiver asking for donors)...
        for d, w in my_out:
            yield from comm.send(
                d, TAG_OB_REQ, None, nbytes=w * work.igbp_request_bytes
            )
        if received:
            yield from comm.compute(flops=received * work.igbp_request_flops)
        # ...requests in, serviced, replies out...
        for r, _w in my_in:
            yield from comm.recv(r, TAG_OB_REQ)
        if served:
            yield from comm.compute(flops=served * work.igbp_service_flops)
        for r, w in my_in:
            yield from comm.send(
                r, TAG_OB_DONOR, None, nbytes=w * work.donor_reply_bytes
            )
        # ...replies in, then interpolation on received donors.
        for d, _w in my_out:
            yield from comm.recv(d, TAG_OB_DONOR)
        if received:
            yield from comm.compute(flops=received * work.interp_flops_per_igbp)
        # Walk-step work for donor searches served by my nb grid.
        my_search = conn.search_steps.get(rank, 0)
        if my_search:
            yield from comm.compute(flops=work.search_flops(my_search))
        my_orphans = conn.orphans_n.get(rank, 0) + sum(
            conn.orphans_p.get(pi, 0) for pi in mine
        )
        # Donor relations only exist for points that found one.
        return StepStats(step, received, my_search, received, my_orphans)

    return (yield from timestep_program(
        comm, load, world, work, case.dt,
        range(first_step, first_step + nsteps), exchange,
    ))


@dataclass
class _OffBodyCarry:
    """What an off-body run carries from epoch to epoch."""

    #: Remembers the previous layout (churn is a diff against it).
    manager: OffBodyManager
    #: The epoch in flight; ``None`` until the first one is planned.
    plan: _EpochPlan | None = None


class _OffBody(Workload):
    """Near-body grids pinned one per rank + off-body patch groups.

    Only off-body ranks are expendable: near-body grids are pinned one
    per rank, so a failure of rank ``< n_near`` (or shrinking below
    ``n_near + 1`` ranks) re-raises the failure.
    """

    result_type = OffBodyRunResult

    def __init__(self, target: OffBodyCase) -> None:
        super().__init__(target)
        self.world = _OffBodyWorld(target)

    def initial_carry(self) -> _OffBodyCarry:
        return _OffBodyCarry(manager=self.target.make_manager())

    def shrink(
        self, state: _DriverState, dead: tuple[int, ...], failure: RankFailure
    ) -> tuple[int, ...]:
        n_near = self.target.n_near
        n_new = state.nranks - len(dead)
        if any(r < n_near for r in dead) or n_new < n_near + 1:
            # A near-body grid has no other host, and the patches need
            # at least one group.
            raise failure
        # The next plan_epoch regroups the patches onto the survivors.
        state.nranks = n_new
        return (1,) * n_near + (n_new - n_near,)

    # ------------------------------------------------------------------

    def plan_epoch(self, state: _DriverState, remaining: int, tracer: Any) -> int:
        """Regenerate patches + regroup; charges the driver-level spans."""
        case = self.target
        machine = case.machine
        n_near = case.n_near
        ngroups = state.nranks - n_near
        ranks = range(state.nranks)

        layout = state.carry.manager.regenerate(self.world.body_boxes())
        t_regen = machine.compute_time(
            REGEN_FLOPS_PER_POINT * max(1, layout.total_points)
        )
        driver_span(tracer, ranks, PHASE_REGEN, t_regen)
        if tracer is not None:
            tracer.mark(
                0.0, "offbody:regen",
                step=state.step,
                npatches=layout.npatches,
                created=layout.created,
                destroyed=layout.destroyed,
                levels={str(k): v for k, v in sorted(layout.level_counts().items())},
            )
        state.vt += t_regen

        edges = set(layout.edges)
        if case.grouping == "algorithm3":
            grouping = group_grids(list(layout.sizes), edges, ngroups)
        else:
            grouping = round_robin_grids(list(layout.sizes), ngroups)
        t_group = machine.compute_time(
            GROUP_FLOPS_PER_EDGE * max(1, len(edges) + layout.npatches)
        )
        # Algorithm 1 over the grouped unit sizes (near-body grids +
        # non-empty groups): with units == ranks this assigns one
        # processor each; its achieved tolerance is the balance report.
        unit_sizes = [g.npoints for g in case.near_body] + [
            p for p in grouping.group_points if p > 0
        ]
        sb = static_balance(unit_sizes, len(unit_sizes))
        driver_span(tracer, ranks, PHASE_GROUP, t_group)
        if tracer is not None:
            tracer.mark(
                0.0, "offbody:group",
                step=state.step,
                strategy=case.grouping,
                ngroups=ngroups,
                group_points=list(grouping.group_points),
                cut_points=grouping.cut_weight(layout.weights),
                imbalance=grouping.imbalance(),
            )
        state.vt += t_group

        state.carry.plan = _EpochPlan(
            layout=layout,
            grouping=grouping,
            strategy=case.grouping,
            nranks=state.nranks,
            n_near=n_near,
            balance_tau=sb.tau,
        )
        return min(case.adapt_interval, remaining)

    def finish_epoch(self, carry: _OffBodyCarry, acc: _EpochAccum) -> OffBodyEpoch:
        plan = carry.plan
        assert plan is not None  # plan_epoch ran before the first chunk
        edges = set(plan.layout.edges)
        return OffBodyEpoch(
            partition=None,
            **acc.totals(),
            strategy=plan.strategy,
            grouping=plan.grouping,
            npatches=plan.layout.npatches,
            created=plan.layout.created,
            destroyed=plan.layout.destroyed,
            level_counts=plan.layout.level_counts(),
            cut_points=plan.grouping.cut_weight(plan.layout.weights),
            intra_edges=plan.grouping.intra_group_edges(edges),
            cut_edges=plan.grouping.cut_edges(edges),
            balance_tau=plan.balance_tau,
            donors_total=acc.donors_total,
            per_step_igbp=[tuple(int(x) for x in row) for row in acc.per_step],
        )

    def run_chunk(
        self,
        backend: ExecutionBackend,
        carry: _OffBodyCarry,
        first_step: int,
        nsteps: int,
        **run_kwargs: Any,
    ) -> BackendResult:
        plan = carry.plan
        assert plan is not None  # plan_epoch ran before the first chunk
        program = functools.partial(
            _off_body_program, case=self.target, world=self.world, plan=plan,
            halo=_halo_partners(plan), first_step=first_step, nsteps=nsteps,
        )
        return backend.run(
            self.target.machine.with_nodes(plan.nranks),
            [program] * plan.nranks, **run_kwargs,
        )


class OffBodyDriver(EpochRunner):
    """Run an :class:`OffBodyCase` on a pluggable execution backend.

    Parameters are :class:`repro.core.runner.EpochRunner`'s: ``case,
    tracer, fault_plan, checkpoint_every, checkpoint_store, sanitizer,
    backend``.  Traces gain the
    ``offbody:regen`` / ``offbody:group`` driver phases.
    """

    workload_type = _OffBody

    # Defined per driver: the typed entry point, and the seam
    # benchmarks/perf wraps by name.
    def run(self) -> OffBodyRunResult:
        return cast(OffBodyRunResult, self._run())
