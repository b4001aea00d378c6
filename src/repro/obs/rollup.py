"""The per-step rollups: received IGBPs and time per phase.

:class:`IgbpRollup` holds the per-step, per-rank received-IGBP counts
I(p) with the derived global average Ibar and load factors
f(p) = I(p)/Ibar.  This is the series Algorithm 2
(:mod:`repro.partition.dynamic_lb`) consumes; the driver no longer
threads raw counter arrays through its result types.

:class:`StepRollup` splits a recorded event stream into timesteps, one
:class:`repro.machine.metrics.PhaseRollup` per step.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.machine.metrics import PHASE_FLOW, PhaseRollup
from repro.obs.tracer import KIND_OP, KIND_PHASE

__all__ = ["IgbpRollup", "StepRollup"]


class IgbpRollup:
    """Per-step, per-rank received-IGBP counts and the f(p) series.

    ``record`` appends one timestep's I(p); if the rank count changes
    (the partition was rebuilt) accumulation restarts, mirroring the
    paper's per-window measurement between load-balance checks.
    """

    def __init__(self) -> None:
        self._steps: list[np.ndarray] = []

    # -- recording ------------------------------------------------------

    def record(self, counts: Any) -> None:
        arr = np.asarray(counts, dtype=np.int64).ravel()
        if arr.size == 0:
            raise ValueError("empty I(p) sample")
        if self._steps and arr.size != self._steps[0].size:
            self._steps = []  # repartition: restart the window
        self._steps.append(arr.copy())

    def merge(self, other: "IgbpRollup") -> "IgbpRollup":
        for arr in other._steps:
            self.record(arr)
        return self

    def reset(self) -> None:
        self._steps = []

    # -- access ---------------------------------------------------------

    @property
    def nsteps(self) -> int:
        return len(self._steps)

    @property
    def nranks(self) -> int:
        return self._steps[0].size if self._steps else 0

    def per_step(self) -> np.ndarray:
        """The raw (nsteps, nranks) I(p) matrix."""
        if not self._steps:
            return np.zeros((0, 0), dtype=np.int64)
        return np.stack(self._steps)

    def accumulated(self) -> np.ndarray:
        """I(p) summed over the recorded window (one entry per rank)."""
        if not self._steps:
            return np.zeros(0, dtype=np.int64)
        return self.per_step().sum(axis=0)

    def ibar(self) -> float:
        """Global average received-IGBP count over the window."""
        acc = self.accumulated()
        return float(acc.mean()) if acc.size else 0.0

    def f(self) -> np.ndarray:
        """Load factors f(p) = I(p)/Ibar (all ones when Ibar == 0)."""
        acc = self.accumulated().astype(float)
        ib = self.ibar()
        if acc.size == 0:
            return acc
        if ib == 0:
            return np.ones_like(acc)
        return acc / ib

    def summary(self) -> dict:
        acc = self.accumulated()
        return {
            "nsteps": self.nsteps,
            "nranks": self.nranks,
            "I": [int(v) for v in acc],
            "ibar": self.ibar(),
            "f_max": float(self.f().max()) if acc.size else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IgbpRollup(nsteps={self.nsteps}, nranks={self.nranks}, "
            f"ibar={self.ibar():.3g})"
        )


class StepRollup:
    """Per-step, per-rank, per-phase time of one recorded event stream.

    :meth:`feed` takes ``(kind, fields)`` events in recording order and
    applies the one step rule: a rank's next step starts when that rank
    enters :data:`~repro.machine.metrics.PHASE_FLOW`.  Each op span goes
    through :meth:`PhaseRollup.add_span` into the cell of its (step,
    rank, phase) in ``steps``; ``bounds`` keeps each cell's first start
    and last end beside it.  A rank's ops before its first step go to
    ``before``.
    """

    def __init__(self) -> None:
        #: step -> its rollup (rows grow as ranks show up).
        self.steps: list[PhaseRollup] = []
        #: step -> (rank, phase) -> [first start, last end].
        self.bounds: list[dict[tuple[int, str], list[float]]] = []
        self.before = PhaseRollup.empty(1)
        self._step_of: dict[int, int] = {}

    def feed(self, kind: int, fields: tuple) -> int | None:
        """Fold one event; return the step it starts for its rank (a
        :data:`PHASE_FLOW` phase mark does), else ``None``."""
        if kind == KIND_OP:
            rank, phase, _kind, t0, t1 = fields[:5]
            step = self._step_of.get(rank, -1)
            if step < 0:
                self.before.add_span(*fields)
                return None
            self.steps[step].add_span(*fields)
            bound = self.bounds[step].setdefault((rank, phase), [t0, t1])
            bound[0] = min(bound[0], t0)
            bound[1] = max(bound[1], t1)
        elif kind == KIND_PHASE and fields[2] == PHASE_FLOW:
            rank = fields[0]
            step = self._step_of[rank] = self._step_of.get(rank, -1) + 1
            if step == len(self.steps):
                self.steps.append(PhaseRollup.empty(1))
                self.bounds.append({})
            return step
        return None
