"""Per-rank, per-phase accounting of time, flops and traffic.

The paper's evaluation reports three derived statistics per run (Tables
1--6): average Mflops/node, parallel speedup, and percentage of time in
the connectivity solution.  All three come from one quantity, kept here
in one shape from the engine that charges it to the table that prints
it.  A *phase* is a caller-chosen label ("overflow", "dcf3d", "motion",
...) set through :meth:`repro.machine.simmpi.Comm.set_phase`; within a
phase, time is split into ``compute`` (charged flops), ``comm`` (message
injection and polling) and ``wait`` (idle, blocked on a receive or
collective).

* :class:`PhaseCell` — the seconds by kind and the flops of one (rank,
  phase) pair;
* :class:`RankMetrics` — one rank's row: a cell per phase, in the order
  the rank entered them, plus its message counters and final clock.
  Every engine adds straight into these cells;
* :class:`PhaseRollup` — one row per rank plus the wall-clock covered
  and the phases in first-seen order: the Table-4-style breakdown (flow
  solve vs. grid motion vs. DCF3D vs. wait) and the load-imbalance
  factors the tables report;
* :class:`BackendResult` — what one execution on any engine returns,
  its rollup included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

KINDS = ("compute", "comm", "wait")

#: The phases of one timestep — flow solve, grid motion, domain
#: connectivity — in the order every rank runs them.  Entering the
#: first starts a rank's next step.
PHASE_FLOW, PHASE_MOTION, PHASE_DCF = STEP_PHASES = ("overflow", "motion", "dcf3d")


@dataclass
class PhaseCell:
    """Accounting for one (rank, phase) pair."""

    compute: float = 0.0
    comm: float = 0.0
    wait: float = 0.0
    flops: float = 0.0
    nbytes: int = 0
    events: int = 0

    @property
    def total(self) -> float:
        """Seconds attributed to this cell (all kinds)."""
        return self.compute + self.comm + self.wait

    def add(self, other: "PhaseCell") -> None:
        self.compute += other.compute
        self.comm += other.comm
        self.wait += other.wait
        self.flops += other.flops
        self.nbytes += other.nbytes
        self.events += other.events


@dataclass
class RankMetrics:
    """One rank's row: a :class:`PhaseCell` per phase and its counters.

    A cell appears when the rank is first charged in that phase, so a
    phase with no charged time never shows up.  Picklable by design:
    checkpoints (:mod:`repro.resilience.checkpoint`) snapshot in-flight
    epoch accumulators which carry these rows across scheduler runs.
    """

    rank: int
    cells: dict[str, PhaseCell] = field(default_factory=dict)
    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    final_clock: float = 0.0

    def cell(self, phase: str) -> PhaseCell:
        """The cell of ``phase``, created empty on first use."""
        cell = self.cells.get(phase)
        if cell is None:
            cell = self.cells[phase] = PhaseCell()
        return cell

    def add_time(self, phase: str, kind: str, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative time increment {dt} in phase {phase!r}")
        cell = self.cell(phase)
        setattr(cell, kind, getattr(cell, kind) + dt)

    def add_flops(self, phase: str, flops: float) -> None:
        self.cell(phase).flops += flops


class PhaseRollup:
    """Per-rank, per-phase aggregate of one or more runs.

    ``ranks`` holds one :class:`RankMetrics` row per rank, indexed by
    rank; ``elapsed`` is the wall-clock covered (the latest final clock
    of a single run, the sum over epochs of a merged rollup).  Phases
    keep first-seen order, matching the order ranks entered them.
    """

    def __init__(self, ranks: Sequence[RankMetrics]) -> None:
        if not ranks:
            raise ValueError("rollup needs >= 1 rank")
        self.ranks = list(ranks)
        self.elapsed = max(r.final_clock for r in self.ranks)
        # (rank, phase) of every cell, first seen first: the phase
        # order, and the order the totals add cells in (rows' cells
        # rank by rank; a trace's cells in recording order).
        self._order = [
            (r, phase) for r, row in enumerate(self.ranks) for phase in row.cells
        ]

    @classmethod
    def empty(cls, nranks: int) -> "PhaseRollup":
        """``nranks`` rows with nothing charged yet."""
        return cls([RankMetrics(r) for r in range(nranks)])

    @classmethod
    def from_tracer(
        cls, tracer: Any, nranks: int | None = None
    ) -> "PhaseRollup":
        """Build from a :class:`repro.obs.tracer.SpanTracer`'s op spans,
        which also attribute bytes and event counts per phase."""
        n = tracer.nranks if nranks is None else nranks
        roll = cls.empty(max(1, n))
        roll.elapsed = tracer.t_end
        for op in tracer.ops:
            roll.add_span(*op)
        return roll

    def add_span(
        self, rank: int, phase: str, kind: str, t0: float, t1: float,
        flops: float = 0.0, nbytes: int = 0,
    ) -> PhaseCell:
        """Add one op span (a tracer ``op`` record's fields) to the cell
        of its rank and phase, and return that cell."""
        if kind not in KINDS:
            raise ValueError(f"unknown span kind {kind!r}")
        cell = self._cell(rank, phase)
        setattr(cell, kind, getattr(cell, kind) + (t1 - t0))
        cell.flops += flops
        cell.nbytes += nbytes
        cell.events += 1
        return cell

    def merge(self, other: "PhaseRollup") -> "PhaseRollup":
        """Accumulate another rollup (e.g. the next epoch) in place.

        Elapsed times add (epochs are sequential); rank counts may
        differ across repartitions — the merged rollup covers the
        largest rank id seen.
        """
        self._grow(other.nranks)
        self.elapsed += other.elapsed
        for rank, phase in other._order:
            self._cell(rank, phase).add(other.ranks[rank].cells[phase])
        for mine, row in zip(self.ranks, other.ranks):
            mine.messages_sent += row.messages_sent
            mine.bytes_sent += row.bytes_sent
            mine.messages_received += row.messages_received
        return self

    # -- access ---------------------------------------------------------

    @property
    def nranks(self) -> int:
        return len(self.ranks)

    def _grow(self, nranks: int) -> None:
        for r in range(self.nranks, nranks):
            self.ranks.append(RankMetrics(r))

    def _cell(self, rank: int, phase: str) -> PhaseCell:
        self._grow(rank + 1)
        if phase not in self.ranks[rank].cells:
            self._order.append((rank, phase))
        return self.ranks[rank].cell(phase)

    def _cells(self) -> Iterator[tuple[str, PhaseCell]]:
        """Every ``(phase, cell)``, first seen first."""
        for rank, phase in self._order:
            yield phase, self.ranks[rank].cells[phase]

    def cell(self, rank: int, phase: str) -> PhaseCell:
        """The (possibly empty) accounting cell for one rank and phase."""
        if rank >= self.nranks:
            return PhaseCell()
        return self.ranks[rank].cells.get(phase, PhaseCell())

    def phases(self) -> list[str]:
        return list(dict.fromkeys(phase for _, phase in self._order))

    def phase_seconds(self, phase: str) -> np.ndarray:
        """Per-rank seconds in ``phase`` (zeros where a rank never entered)."""
        return np.array([self.cell(r, phase).total for r in range(self.nranks)])

    def phase_total(self, phase: str) -> float:
        """Summed rank-seconds in ``phase``."""
        return float(self.phase_seconds(phase).sum())

    def phase_max(self, phase: str) -> float:
        """Slowest single rank — the barrier-separated critical path."""
        return float(self.phase_seconds(phase).max())

    def phase_avg(self, phase: str) -> float:
        return self.phase_total(phase) / self.nranks

    def phase_wait(self, phase: str) -> float:
        """Summed rank-seconds idle (blocked) inside ``phase``."""
        return sum(c.wait for p, c in self._cells() if p == phase)

    def imbalance(self, phase: str) -> float:
        """max/avg load factor for one phase (1.0 = perfect balance)."""
        avg = self.phase_avg(phase)
        return self.phase_max(phase) / avg if avg else 1.0

    def total_seconds(self) -> float:
        return sum(c.total for _, c in self._cells())

    def total_flops(self) -> float:
        return sum(c.flops for _, c in self._cells())

    def phase_fraction(self, phase: str) -> float:
        total = self.total_seconds()
        return self.phase_total(phase) / total if total else 0.0

    # -- presentation ---------------------------------------------------

    def breakdown(self, order: list[str] | None = None) -> list[dict]:
        """Table-4-style rows: one dict per phase.

        ``avg_s``/``max_s`` are per-rank seconds over the whole rollup;
        ``wait_s`` the summed idle seconds inside the phase;
        ``imbalance`` the max/avg factor; ``fraction`` the share of all
        rank-seconds.
        """
        phases = order if order is not None else self.phases()
        return [
            {
                "phase": p,
                "avg_s": self.phase_avg(p),
                "max_s": self.phase_max(p),
                "wait_s": self.phase_wait(p),
                "imbalance": self.imbalance(p),
                "fraction": self.phase_fraction(p),
            }
            for p in phases
        ]

    def format_breakdown(self) -> str:
        """Human-readable breakdown table (the paper's Table-4 shape)."""
        hdr = f"{'phase':>12s} {'avg s':>10s} {'max s':>10s} {'wait s':>10s} {'imbal':>7s} {'frac':>6s}"
        lines = [hdr]
        for row in self.breakdown():
            lines.append(
                f"{row['phase']:>12s} {row['avg_s']:>10.5f} "
                f"{row['max_s']:>10.5f} {row['wait_s']:>10.5f} "
                f"{row['imbalance']:>7.3f} {row['fraction']:>6.1%}"
            )
        return "\n".join(lines)

    def summary(self) -> dict:
        """JSON-serialisable summary (used by the golden-trace tests)."""
        return {
            "nranks": self.nranks,
            "elapsed": self.elapsed,
            "total_flops": self.total_flops(),
            "phases": {
                p: {
                    "total_s": self.phase_total(p),
                    "max_s": self.phase_max(p),
                    "wait_s": self.phase_wait(p),
                    "events": int(
                        sum(c.events for q, c in self._cells() if q == p)
                    ),
                }
                for p in self.phases()
            },
        }


@dataclass
class BackendResult:
    """Outcome of one execution, on any engine.

    ``metrics`` is the run's :class:`PhaseRollup` (its rows are what a
    split epoch carries into the next chunk); ``elapsed`` its
    wall-clock; ``failed_ranks`` the fail-stopped ranks of a run that
    was allowed to finish without them.  Two provenance fields sit on
    top:

    ``backend``
        Registry name of the engine that produced this result.
    ``measured``
        ``False`` for modeled (virtual-time, deterministic) results,
        ``True`` for measured (host wall-clock, nondeterministic) ones.
        Anything downstream that demands bit-identical numbers (golden
        traces, canonical BENCH sections, trace-diff gates) must treat
        ``measured=True`` results as host-section data.
    """

    elapsed: float
    returns: list[Any]
    metrics: PhaseRollup
    failed_ranks: tuple[int, ...] = ()
    backend: str = "sim"
    measured: bool = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        unit = "s wall" if self.measured else "s virtual"
        return (
            f"BackendResult(backend={self.backend!r}, "
            f"elapsed={self.elapsed:.6g}{unit}, "
            f"ranks={self.metrics.nranks}, failed={list(self.failed_ranks)})"
        )
