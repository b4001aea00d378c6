"""Critical-path analysis: the longest chain through each timestep.

OVERFLOW-D1 advances in barrier-separated phases — flow solve
("overflow"), grid motion ("motion"), connectivity ("dcf3d") — so the
elapsed time of one timestep is the sum over phases of the *slowest*
rank's interval in that phase; everything the other ranks spend short
of the slowest is slack.  This module walks a
:class:`repro.obs.tracer.SpanTracer`'s event streams and reproduces the
paper's Table-style accounting per timestep:

* the **chain**: per (step, phase) the wall interval ``[t0, t1]``, the
  critical rank (the last finisher, ties to the lowest rank id) and its
  busy time;
* **slack attribution** per rank: measured ``wait`` (blocked receives),
  ``comm`` (injection/poll), ``compute``, and the residual
  ``barrier_s`` — the span time the rank was simply finished early
  (idle at the dissemination barrier);
* **imbalance factors** per phase (max/avg busy time, the Table-4
  column) and — when an :class:`repro.obs.rollup.IgbpRollup` is
  supplied — the paper's received-IGBP distribution f(p) = I(p)/Ibar;
* **wait blame**: each completed blocking receive ends a recorded wait
  span; the matching ``recv`` event names the sender, so idle seconds
  can be charged to the rank whose message arrived late.

Steps are identified by counting per-rank entries into the *first*
cyclic phase (``phase_order[0]``): the k-th entry starts that rank's
step k.  Activity before the first entry, and activity in phases
outside ``phase_order`` (e.g. ``restore`` / ``repartition`` recovery
spans), is grouped under the pseudo-step ``-1`` ("off-cycle") so
faulted runs remain analyzable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["CriticalPathReport", "analyze_critical_path", "DEFAULT_PHASE_ORDER"]

#: The OVERFLOW-D1 per-step phase cycle (see repro.core.overflow_d1).
DEFAULT_PHASE_ORDER: tuple[str, ...] = ("overflow", "motion", "dcf3d")

#: Pseudo-step index for activity outside the phase cycle.
OFF_CYCLE = -1


@dataclass
class _Cell:
    """Accounting for one (step, phase, rank) triple."""

    compute: float = 0.0
    comm: float = 0.0
    wait: float = 0.0
    t0: float = float("inf")
    t1: float = float("-inf")

    @property
    def busy(self) -> float:
        return self.compute + self.comm

    @property
    def total(self) -> float:
        return self.compute + self.comm + self.wait


@dataclass
class PhaseChainLink:
    """One phase of one timestep on the critical chain."""

    step: int
    phase: str
    t0: float
    t1: float
    critical_rank: int
    busy_max: float
    busy_avg: float
    wait_total: float
    barrier_total: float
    imbalance: float

    @property
    def span(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "phase": self.phase,
            "t0": self.t0,
            "t1": self.t1,
            "span_s": self.span,
            "critical_rank": self.critical_rank,
            "busy_max_s": self.busy_max,
            "busy_avg_s": self.busy_avg,
            "wait_s": self.wait_total,
            "barrier_s": self.barrier_total,
            "imbalance": self.imbalance,
        }


@dataclass
class CriticalPathReport:
    """Result object of :func:`analyze_critical_path`."""

    nranks: int
    nsteps: int
    phase_order: tuple[str, ...]
    #: In-cycle chain links, ordered by (step, phase position).
    chain: list[PhaseChainLink] = field(default_factory=list)
    #: phase -> aggregate dict (summed over steps).
    phase_totals: dict[str, dict] = field(default_factory=dict)
    #: rank -> {compute_s, comm_s, wait_s, barrier_s}.
    rank_slack: dict[int, dict] = field(default_factory=dict)
    #: phase -> [(sender rank, blamed wait seconds)], top offenders.
    wait_blame: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    #: Off-cycle (recovery / default-phase) per-phase seconds.
    off_cycle: dict[str, float] = field(default_factory=dict)
    #: f(p) = I(p)/Ibar block when an IgbpRollup was supplied.
    igbp: dict | None = None

    @property
    def chain_seconds(self) -> float:
        """Sum of in-cycle phase spans — the barrier-separated critical
        path through the measured timesteps."""
        return sum(link.span for link in self.chain)

    # -- serialization --------------------------------------------------

    def to_dict(self, include_steps: bool = False) -> dict:
        out: dict[str, Any] = {
            "nranks": self.nranks,
            "nsteps": self.nsteps,
            "phase_order": list(self.phase_order),
            "chain_seconds": self.chain_seconds,
            "phases": self.phase_totals,
            "rank_slack": {
                str(r): v for r, v in sorted(self.rank_slack.items())
            },
            "wait_blame": {
                p: [[r, s] for r, s in blames]
                for p, blames in self.wait_blame.items()
            },
            "off_cycle": dict(self.off_cycle),
        }
        if self.igbp is not None:
            out["igbp"] = self.igbp
        if include_steps:
            out["steps"] = [c.to_dict() for c in self.chain]
        return out

    # -- presentation ---------------------------------------------------

    def format(self) -> str:
        lines = [
            f"critical path: {self.nsteps} step(s), {self.nranks} rank(s), "
            f"chain {self.chain_seconds:.5f} s"
        ]
        hdr = (
            f"  {'phase':>10s} {'span s':>10s} {'busy max':>10s} "
            f"{'busy avg':>10s} {'wait s':>10s} {'barrier s':>10s} "
            f"{'imbal':>7s} {'crit ranks':>12s}"
        )
        lines.append(hdr)
        for phase in self.phase_order:
            tot = self.phase_totals.get(phase)
            if tot is None:
                continue
            lines.append(
                f"  {phase:>10s} {tot['span_s']:>10.5f} "
                f"{tot['busy_max_s']:>10.5f} {tot['busy_avg_s']:>10.5f} "
                f"{tot['wait_s']:>10.5f} {tot['barrier_s']:>10.5f} "
                f"{tot['imbalance']:>7.3f} "
                f"{str(tot['critical_ranks'])[:12]:>12s}"
            )
        for phase, blames in self.wait_blame.items():
            if blames:
                top = ", ".join(f"rank {r}: {s:.5f}s" for r, s in blames[:3])
                lines.append(f"  wait blame [{phase}]: {top}")
        if self.off_cycle:
            oc = ", ".join(
                f"{p}={s:.5f}s" for p, s in sorted(self.off_cycle.items())
            )
            lines.append(f"  off-cycle: {oc}")
        if self.igbp is not None:
            lines.append(
                f"  IGBP imbalance: Ibar={self.igbp['ibar']:.2f}, "
                f"max f(p)={self.igbp['f_max']:.3f}"
            )
        return "\n".join(lines)


def _step_segments(
    tracer: Any, phase_order: tuple[str, ...]
) -> dict[int, list[tuple[float, int, str]]]:
    """Per-rank step boundaries from the phase-mark stream.

    Returns ``{rank: [(t, step, phase), ...]}`` in time order, where
    ``step`` is the 0-based timestep the segment belongs to (OFF_CYCLE
    for pre-cycle or out-of-cycle phases).
    """
    cycle = set(phase_order)
    first = phase_order[0]
    segs: dict[int, list[tuple[float, int, str]]] = {}
    counters: dict[int, int] = {}
    for rank, t, name in tracer.phase_marks:
        lst = segs.setdefault(rank, [])
        if name == first:
            counters[rank] = counters.get(rank, -1) + 1
        step = counters.get(rank, OFF_CYCLE) if name in cycle else OFF_CYCLE
        lst.append((t, step, name))
    return segs


def analyze_critical_path(
    tracer: Any,
    igbp: Any | None = None,
    phase_order: tuple[str, ...] = DEFAULT_PHASE_ORDER,
    blame_top_k: int = 5,
) -> CriticalPathReport:
    """Walk one :class:`SpanTracer` into a :class:`CriticalPathReport`.

    Parameters
    ----------
    tracer:
        The recorded trace (op spans + phase marks + send/recv events).
    igbp:
        Optional :class:`repro.obs.rollup.IgbpRollup`; its f(p) series
        is embedded in the report (the paper's Algorithm-2 input).
    phase_order:
        The per-step phase cycle; entries into ``phase_order[0]`` start
        a new step on that rank.
    blame_top_k:
        How many sender ranks to keep per phase in the wait-blame list.
    """
    nranks = tracer.nranks
    segs = _step_segments(tracer, phase_order)

    # Attribute each op span to (step, phase, rank).
    cells: dict[tuple[int, str, int], _Cell] = {}
    off_cycle: dict[str, float] = {}
    pointers = {rank: 0 for rank in segs}
    cur: dict[int, tuple[int, str]] = {}  # rank -> (step, phase)
    for rank, phase, kind, t0, t1, _flops, _nbytes in tracer.ops:
        marks = segs.get(rank, [])
        i = pointers.get(rank, 0)
        while i < len(marks) and marks[i][0] <= t0:
            cur[rank] = (marks[i][1], marks[i][2])
            i += 1
        pointers[rank] = i
        step, seg_phase = cur.get(rank, (OFF_CYCLE, "default"))
        # Trust the op's own phase label; use the segment only for the
        # step index (the label is what the scheduler charged).
        if step == OFF_CYCLE or phase != seg_phase:
            if phase not in set(phase_order):
                off_cycle[phase] = off_cycle.get(phase, 0.0) + (t1 - t0)
                continue
            if step == OFF_CYCLE:
                off_cycle[phase] = off_cycle.get(phase, 0.0) + (t1 - t0)
                continue
        cell = cells.get((step, phase, rank))
        if cell is None:
            cell = cells[(step, phase, rank)] = _Cell()
        if kind == "compute":
            cell.compute += t1 - t0
        elif kind == "comm":
            cell.comm += t1 - t0
        else:
            cell.wait += t1 - t0
        cell.t0 = min(cell.t0, t0)
        cell.t1 = max(cell.t1, t1)

    steps = sorted({s for (s, _p, _r) in cells if s != OFF_CYCLE})
    pos = {p: i for i, p in enumerate(phase_order)}

    # Wait blame: map recv events (t, rank, src, ...) onto the senders
    # whose messages ended recorded wait spans.  A blocking receive's
    # wait span ends exactly at the recv event's timestamp on the same
    # rank (same float: both are the post-wake clock).
    recv_src: dict[tuple[int, float], list[int]] = {}
    for t, rank, src, _tag, _nbytes, _phase in tracer.recvs:
        recv_src.setdefault((rank, t), []).append(src)
    blame: dict[str, dict[int, float]] = {}
    for rank, phase, kind, t0, t1, _f, _b in tracer.ops:
        if kind != "wait" or t1 <= t0:
            continue
        srcs = recv_src.get((rank, t1))
        if srcs:
            src = srcs[0]
            blame.setdefault(phase, {})[src] = (
                blame.setdefault(phase, {}).get(src, 0.0) + (t1 - t0)
            )

    # Assemble the chain and aggregates.
    chain: list[PhaseChainLink] = []
    phase_totals: dict[str, dict] = {}
    rank_slack: dict[int, dict] = {
        r: {"compute_s": 0.0, "comm_s": 0.0, "wait_s": 0.0, "barrier_s": 0.0}
        for r in range(nranks)
    }
    for step in steps:
        for phase in phase_order:
            ranks = [
                r for r in range(nranks) if (step, phase, r) in cells
            ]
            if not ranks:
                continue
            cs = {r: cells[(step, phase, r)] for r in ranks}
            t0 = min(c.t0 for c in cs.values())
            t1 = max(c.t1 for c in cs.values())
            # Critical rank: last finisher; ties to the lowest rank id.
            critical = min(r for r in ranks if cs[r].t1 == t1)
            busy = np.array([cs[r].busy for r in ranks])
            busy_max = float(busy.max())
            busy_avg = float(busy.mean())
            wait_total = float(sum(c.wait for c in cs.values()))
            # Barrier slack: the span time each participating rank was
            # neither computing, communicating nor in a recorded wait.
            span = t1 - t0
            barrier_total = float(
                sum(max(0.0, span - cs[r].total) for r in ranks)
            )
            chain.append(
                PhaseChainLink(
                    step=step,
                    phase=phase,
                    t0=t0,
                    t1=t1,
                    critical_rank=critical,
                    busy_max=busy_max,
                    busy_avg=busy_avg,
                    wait_total=wait_total,
                    barrier_total=barrier_total,
                    imbalance=(busy_max / busy_avg) if busy_avg else 1.0,
                )
            )
            for r in ranks:
                s = rank_slack[r]
                s["compute_s"] += cs[r].compute
                s["comm_s"] += cs[r].comm
                s["wait_s"] += cs[r].wait
                s["barrier_s"] += max(0.0, span - cs[r].total)
    chain.sort(key=lambda c: (c.step, pos.get(c.phase, len(pos))))

    for phase in phase_order:
        links = [c for c in chain if c.phase == phase]
        if not links:
            continue
        busy_max = sum(c.busy_max for c in links)
        busy_avg = sum(c.busy_avg for c in links)
        crit_counts: dict[int, int] = {}
        for c in links:
            crit_counts[c.critical_rank] = crit_counts.get(c.critical_rank, 0) + 1
        critical_ranks = sorted(
            crit_counts, key=lambda r: (-crit_counts[r], r)
        )[:3]
        phase_totals[phase] = {
            "span_s": sum(c.span for c in links),
            "busy_max_s": busy_max,
            "busy_avg_s": busy_avg,
            "wait_s": sum(c.wait_total for c in links),
            "barrier_s": sum(c.barrier_total for c in links),
            "imbalance": (busy_max / busy_avg) if busy_avg else 1.0,
            "critical_ranks": critical_ranks,
        }

    wait_blame = {
        phase: sorted(
            ((r, s) for r, s in by_src.items()),
            key=lambda rs: (-rs[1], rs[0]),
        )[:blame_top_k]
        for phase, by_src in sorted(blame.items())
    }

    igbp_block = None
    if igbp is not None:
        summ = igbp.summary()
        igbp_block = {
            "I": summ["I"],
            "ibar": summ["ibar"],
            "f": [float(v) for v in igbp.f()],
            "f_max": summ["f_max"],
            "nsteps": summ["nsteps"],
        }

    return CriticalPathReport(
        nranks=nranks,
        nsteps=len(steps),
        phase_order=tuple(phase_order),
        chain=chain,
        phase_totals=phase_totals,
        rank_slack=rank_slack,
        wait_blame=wait_blame,
        off_cycle=off_cycle,
        igbp=igbp_block,
    )
