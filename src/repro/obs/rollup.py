"""The per-step, per-rank received-IGBP rollup.

:class:`IgbpRollup` holds the per-step, per-rank received-IGBP counts
I(p) with the derived global average Ibar and load factors
f(p) = I(p)/Ibar.  This is the series Algorithm 2
(:mod:`repro.partition.dynamic_lb`) consumes; the driver no longer
threads raw counter arrays through its result types.  The per-rank,
per-phase time breakdown is :class:`repro.machine.metrics.PhaseRollup`,
re-exported from :mod:`repro.obs`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["IgbpRollup"]


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
