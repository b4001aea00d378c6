"""Fail-stop fault injection for the simulated machine.

The paper's regime — long moving-body runs on tens of nodes, thousands
of timesteps — is exactly where fail-stop node loss dominates
operational cost on real machines.  This module models it for the
event-driven simulator: a :class:`FaultPlan` describes *when* ranks
fail, the scheduler (:mod:`repro.machine.scheduler`) enacts the plan —
marking the rank dead, draining its mailbox, black-holing messages
addressed to it — and surfaces the outcome to the driver as a typed
:class:`RankFailure` instead of an opaque deadlock.

Faults are **virtual-time deterministic**: a fault fires at a fixed
virtual time, at a fixed phase barrier (the k-th ``set_phase`` call on
the victim rank), or — at the driver level — at a fixed timestep.
Randomised plans (:meth:`FaultPlan.poisson`) draw fail times from a
seeded generator once, up front, so repeated runs of the same plan are
byte-for-byte identical.

Fault-spec string grammar (CLI ``--fault``)::

    rank=3@step=40     fail rank 3 at the start of measured timestep 40
    rank=2@t=0.5       fail rank 2 at virtual time 0.5 s
    rank=1@phase=12    fail rank 1 at its 12th set_phase call

What is *not* modeled: message corruption, duplication or loss on live
links (MPI guarantees delivery), byzantine behaviour, and transient
(recoverable) faults.  A failed rank never comes back; recovery means
redistributing its work over the survivors (see
:mod:`repro.resilience`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FaultSpec", "FaultPlan", "RankFailure"]


@dataclass(frozen=True)
class FaultSpec:
    """One fail-stop event.

    Exactly one trigger must be given:

    * ``time`` — virtual seconds (scheduler-level; the rank dies the
      moment its next event would start at or after this time);
    * ``phase_index`` — the rank dies *instead of* executing its
      ``phase_index``-th ``set_phase`` call (0-based, scheduler-level);
    * ``step`` — measured driver timestep (driver-level; the driver
      translates it into a phase trigger for the chunk covering it).
    """

    rank: int
    time: float | None = None
    phase_index: int | None = None
    step: int | None = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"fault rank must be >= 0, got {self.rank}")
        triggers = [
            t for t in (self.time, self.phase_index, self.step)
            if t is not None
        ]
        if len(triggers) != 1:
            raise ValueError(
                "exactly one of time / phase_index / step must be set, "
                f"got {self!r}"
            )
        if self.time is not None and self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.phase_index is not None and self.phase_index < 0:
            raise ValueError("phase_index must be >= 0")
        if self.step is not None and self.step < 0:
            raise ValueError("step must be >= 0")

    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultSpec":
        """Parse ``rank=3@step=40`` / ``rank=2@t=0.5`` / ``rank=1@phase=9``."""
        text = spec.strip()
        try:
            rank_part, trigger_part = text.split("@", 1)
            rkey, rval = rank_part.split("=", 1)
            tkey, tval = trigger_part.split("=", 1)
        except ValueError:
            raise ValueError(
                f"malformed fault spec {spec!r}; expected "
                "'rank=<r>@step=<s>', 'rank=<r>@t=<seconds>' or "
                "'rank=<r>@phase=<k>'"
            ) from None
        if rkey.strip() != "rank":
            raise ValueError(f"fault spec must start with 'rank=': {spec!r}")
        rank = int(rval)
        tkey = tkey.strip()
        if tkey == "step":
            return cls(rank=rank, step=int(tval))
        if tkey in ("t", "time"):
            return cls(rank=rank, time=float(tval))
        if tkey in ("phase", "barrier"):
            return cls(rank=rank, phase_index=int(tval))
        raise ValueError(
            f"unknown fault trigger {tkey!r} in {spec!r}; "
            "use step=, t= or phase="
        )

    def describe(self) -> str:
        if self.step is not None:
            return f"rank={self.rank}@step={self.step}"
        if self.time is not None:
            return f"rank={self.rank}@t={self.time:g}"
        return f"rank={self.rank}@phase={self.phase_index}"


class FaultPlan:
    """An immutable set of :class:`FaultSpec` events plus fast lookups.

    The scheduler consumes only ``time`` and ``phase_index`` triggers;
    ``step`` triggers belong to the driver, which converts them (one
    measured timestep = three phase barriers in OVERFLOW-D1) before
    handing the plan to a :class:`repro.machine.scheduler.Simulator`.
    """

    def __init__(self, faults=(), seed: int = 0):
        specs = []
        for f in faults:
            if isinstance(f, str):
                f = FaultSpec.parse(f)
            if not isinstance(f, FaultSpec):
                raise TypeError(f"not a FaultSpec: {f!r}")
            specs.append(f)
        self.faults: tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        # Scheduler-facing lookups: earliest trigger per rank.
        self._time_by_rank: dict[int, float] = {}
        self._phase_by_rank: dict[int, int] = {}
        for f in self.faults:
            if f.time is not None:
                prev = self._time_by_rank.get(f.rank)
                if prev is None or f.time < prev:
                    self._time_by_rank[f.rank] = f.time
            elif f.phase_index is not None:
                prev = self._phase_by_rank.get(f.rank)
                if prev is None or f.phase_index < prev:
                    self._phase_by_rank[f.rank] = f.phase_index

    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, *specs: str) -> "FaultPlan":
        """Build a plan from fault-spec strings."""
        return cls([FaultSpec.parse(s) for s in specs])

    @classmethod
    def poisson(
        cls,
        nranks: int,
        mtbf: float,
        horizon: float,
        seed: int = 0,
        max_faults: int | None = None,
    ) -> "FaultPlan":
        """Seeded random plan: per-rank exponential fail times.

        Each rank draws one fail time from Exp(``mtbf``); draws beyond
        ``horizon`` virtual seconds mean the rank survives the run.
        Deterministic given ``seed`` (single up-front draw, no
        execution-order dependence).
        """
        import numpy as np

        if mtbf <= 0 or horizon <= 0:
            raise ValueError("mtbf and horizon must be positive")
        rng = np.random.default_rng(seed)
        draws = rng.exponential(scale=mtbf, size=nranks)
        faults = [
            FaultSpec(rank=r, time=float(t))
            for r, t in enumerate(draws)
            if t < horizon
        ]
        if max_faults is not None:
            faults = sorted(faults, key=lambda f: f.time)[:max_faults]
        return cls(faults, seed=seed)

    # -- scheduler-facing lookups ---------------------------------------

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def time_fault(self, rank: int) -> float | None:
        """Earliest virtual-time trigger for ``rank``, if any."""
        return self._time_by_rank.get(rank)

    def phase_fault(self, rank: int) -> int | None:
        """Earliest phase-barrier trigger for ``rank``, if any."""
        return self._phase_by_rank.get(rank)

    def step_faults(self) -> list[FaultSpec]:
        """Driver-level (timestep-triggered) specs, in declaration order."""
        return [f for f in self.faults if f.step is not None]

    def scheduler_faults(self) -> list[FaultSpec]:
        """Specs the scheduler can enact directly (time / phase)."""
        return [f for f in self.faults if f.step is None]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f.describe() for f in self.faults)
        return f"FaultPlan([{inner}])"


class RankFailure(RuntimeError):
    """One or more ranks fail-stopped; the simulation cannot complete.

    Raised by :meth:`repro.machine.scheduler.Simulator.run` (unless
    ``raise_on_failure=False``) once no further progress is possible
    and at least one rank was killed by the fault plan.  Carries enough
    structure for a driver to run failure detection and elastic
    recovery:

    * ``failed`` — ``{rank: virtual kill time}``;
    * ``time`` — virtual time of the wavefront when progress stopped
      (max over all rank clocks);
    * ``blocked`` — ``(rank, src, tag)`` for survivors stuck on
      receives that can never complete (one entry per pattern for a
      rank parked in ``waitany``);
    * ``completed`` — ranks whose programs ran to normal completion.
    """

    def __init__(
        self,
        failed: dict[int, float],
        time: float,
        blocked: list[tuple[int, int, int]] = (),
        completed: list[int] = (),
        nranks: int = 0,
    ):
        self.failed = dict(failed)
        self.time = time
        self.blocked = list(blocked)
        self.completed = list(completed)
        self.nranks = nranks
        ranks = ", ".join(
            f"{r}@t={t:.6g}" for r, t in sorted(self.failed.items())
        )
        if nranks and len(self.failed) == nranks:
            head = f"all {nranks} ranks failed ({ranks})"
        else:
            head = (
                f"{len(self.failed)} of {nranks} ranks failed ({ranks}); "
                f"{len({b[0] for b in self.blocked})} blocked, "
                f"{len(self.completed)} completed"
            )
        super().__init__(head)

    @property
    def failed_ranks(self) -> tuple[int, ...]:
        return tuple(sorted(self.failed))
