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

Steps come from :class:`repro.obs.rollup.StepRollup`, in recording
order: a rank's k-th entry into the first phase of the timestep cycle
(:data:`repro.machine.metrics.STEP_PHASES`) starts its step k.
Activity before a rank's first entry, and activity in phases outside
the cycle (e.g. ``restore`` / ``repartition`` recovery spans), is
reported as off-cycle seconds so faulted runs remain analyzable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.machine.metrics import STEP_PHASES
from repro.obs.rollup import StepRollup

__all__ = ["CriticalPathReport", "analyze_critical_path"]

#: Sender ranks kept per phase in the wait-blame list.
BLAME_TOP_K = 5


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


def analyze_critical_path(
    tracer: Any, igbp: Any | None = None
) -> CriticalPathReport:
    """Walk one :class:`SpanTracer` into a :class:`CriticalPathReport`.

    Parameters
    ----------
    tracer:
        The recorded trace (op spans + phase marks + send/recv events).
    igbp:
        Optional :class:`repro.obs.rollup.IgbpRollup`; its f(p) series
        is embedded in the report (the paper's Algorithm-2 input).
    """
    nranks = tracer.nranks
    fold = StepRollup()
    for kind, fields in tracer.events:
        fold.feed(kind, fields)
    off_cycle: dict[str, float] = {}
    for roll in (fold.before, *fold.steps):
        for phase in roll.phases():
            if roll is fold.before or phase not in STEP_PHASES:
                off_cycle[phase] = (
                    off_cycle.get(phase, 0.0) + roll.phase_total(phase)
                )

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
    for step, (roll, bounds) in enumerate(zip(fold.steps, fold.bounds)):
        for phase in STEP_PHASES:
            ranks = [r for r in range(nranks) if (r, phase) in bounds]
            if not ranks:
                continue
            cs = {r: roll.ranks[r].cells[phase] for r in ranks}
            t0 = min(bounds[r, phase][0] for r in ranks)
            t1 = max(bounds[r, phase][1] for r in ranks)
            # Critical rank: last finisher; ties to the lowest rank id.
            critical = min(r for r in ranks if bounds[r, phase][1] == t1)
            busy = np.array([cs[r].compute + cs[r].comm for r in ranks])
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

    for phase in STEP_PHASES:
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
        )[:BLAME_TOP_K]
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
        nsteps=len({c.step for c in chain}),
        phase_order=STEP_PHASES,
        chain=chain,
        phase_totals=phase_totals,
        rank_slack=rank_slack,
        wait_blame=wait_blame,
        off_cycle=off_cycle,
        igbp=igbp_block,
    )
