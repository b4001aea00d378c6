"""Algorithm 1: the static load balance routine (paper section 3.0).

Given the gridpoint count g(n) of each component grid and the total
number of processors NP, decide how many processors np(n) each grid
receives so that gridpoints per processor are as even as possible::

    eps = G / NP ; tau = 0
    DO until sum(np) == NP:
        np(n) = max(1, int(g(n) / eps))
        tau += dtau
        eps = eps_0 adjusted by (1 + tau)
    END DO

Notes on fidelity:

* As printed in the paper, the update ``eps = eps * (1 + tau)`` *grows*
  eps, which can only shrink the integer counts ``int(g/eps)`` — the
  loop could never reach NP from the usual under-count.  The described
  behaviour (tolerance grows until the counts reach NP) requires eps to
  shrink, so we use ``eps = eps0 / (1 + tau)`` when the initial total is
  below NP, and the printed growing form for the (rarer) over-count that
  the ``np >= 1`` clamp can cause with many tiny grids.
* The paper's non-convergence fallback is implemented verbatim: "the
  value of the grid index n is added to g(n) and the method is
  repeated", breaking ties between equally-sized grids (their
  two-equal-grids / three-processors example).
* ``tau`` at convergence is returned as the paper's measure of the
  degree of static load imbalance (tau = 0 means perfectly balanced).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

#: Safety bounds of Algorithm 1: tolerance-loop iterations per pass, and
#: passes of the paper's ``g(n) += n`` perturbation fallback.  If both
#: run out, a greedy repair adjusts counts by +-1 on the least/most
#: loaded grids until the total is exact; the result flags
#: ``used_repair`` so callers can tell.
MAX_TOLERANCE_ITERS = 400
MAX_PERTURBATIONS = 64


@dataclass(frozen=True)
class StaticBalanceResult:
    """Outcome of Algorithm 1."""

    procs_per_grid: tuple[int, ...]
    tau: float                  # tolerance at convergence (imbalance measure)
    iterations: int             # tolerance-loop iterations used
    perturbations: int          # how many times the g(n) += n fallback fired
    used_repair: bool           # greedy repair fallback engaged (see below)

    @property
    def nprocs(self) -> int:
        return sum(self.procs_per_grid)

    def points_per_proc(self, gridpoints: list[int]) -> list[float]:
        return [
            g / np_ for g, np_ in zip(gridpoints, self.procs_per_grid)
        ]

    def imbalance(self, gridpoints: list[int]) -> float:
        """max/avg gridpoints-per-processor over the partition."""
        per = self.points_per_proc(gridpoints)
        avg = sum(gridpoints) / self.nprocs
        return max(per) / avg if avg else 1.0


def _counts(gridpoints: list[int], eps: float) -> list[int]:
    return [max(1, int(g / eps)) for g in gridpoints]


def static_balance(
    gridpoints: list[int],
    nprocs: int,
    dtau: float = 0.1,
    min_points_constraints: list[int] | None = None,
    exclude_ranks: Iterable[int] | None = None,
) -> StaticBalanceResult:
    """Run Algorithm 1.

    Parameters
    ----------
    gridpoints:
        g(n): points per component grid (inclusive of points later
        blanked by hole cutting, as the paper specifies).
    nprocs:
        NP: total processors.
    dtau:
        Tolerance increment (paper suggests ~0.1).
    min_points_constraints:
        Optional per-grid *minimum* processor counts — how Algorithm 2
        re-enters Algorithm 1 "with the above np(n) condition enforced".
    exclude_ranks:
        Processors removed from service (fail-stopped nodes, see
        :mod:`repro.resilience`).  Algorithm 1 runs over the *surviving*
        processor count ``NP - len(exclude_ranks)``; the returned
        ``procs_per_grid`` sums to the survivor count.  Rank ids must be
        unique and in ``[0, nprocs)``.

    The loop and its fallback are bounded by :data:`MAX_TOLERANCE_ITERS`
    and :data:`MAX_PERTURBATIONS`.
    """
    n = len(gridpoints)
    if n == 0:
        raise ValueError("no grids")
    if any(g <= 0 for g in gridpoints):
        raise ValueError(f"gridpoint counts must be positive: {gridpoints}")
    if exclude_ranks:
        excluded = sorted(set(int(r) for r in exclude_ranks))
        bad = [r for r in excluded if not (0 <= r < nprocs)]
        if bad:
            raise ValueError(
                f"exclude_ranks out of range [0, {nprocs}): {bad}"
            )
        nprocs = nprocs - len(excluded)
    if nprocs < n:
        raise ValueError(
            f"{nprocs} processors cannot cover {n} grids (each grid "
            "needs at least one whole processor in this scheme)"
        )
    mins = list(min_points_constraints or [1] * n)
    if len(mins) != n:
        raise ValueError("constraint length mismatch")
    if sum(mins) > nprocs:
        raise ValueError(
            f"minimum processor constraints {mins} exceed NP={nprocs}"
        )

    g = [float(x) for x in gridpoints]
    total_iters = 0
    for perturbation in range(MAX_PERTURBATIONS + 1):
        result = _tolerance_loop(g, mins, nprocs, dtau, MAX_TOLERANCE_ITERS)
        if result is not None:
            counts, tau, iters = result
            return StaticBalanceResult(
                tuple(counts), tau, total_iters + iters, perturbation, False
            )
        total_iters += MAX_TOLERANCE_ITERS
        # Paper's fallback: perturb g(n) by the grid index (1-based) to
        # break integer-arithmetic ties, then repeat.
        g = [gv + (i + 1) for i, gv in enumerate(g)]

    # Deterministic greedy repair so production callers always get a
    # valid partition: move single processors between grids, taking from
    # the grid with the fewest points per processor and giving to the
    # grid with the most.
    eps0 = sum(g) / nprocs
    counts = [max(m, c) for m, c in zip(mins, _counts(g, eps0))]
    while sum(counts) != nprocs:
        if sum(counts) < nprocs:
            idx = max(range(n), key=lambda i: g[i] / counts[i])
            counts[idx] += 1
        else:
            candidates = [i for i in range(n) if counts[i] > mins[i]]
            if not candidates:
                raise RuntimeError("constraints make the partition infeasible")
            idx = min(candidates, key=lambda i: g[i] / counts[i])
            counts[idx] -= 1
    tau = _final_tau(g, counts, nprocs)
    return StaticBalanceResult(
        tuple(counts), tau, total_iters, MAX_PERTURBATIONS, True
    )


def _tolerance_loop(
    g: list[float],
    mins: list[int],
    nprocs: int,
    dtau: float,
    max_iters: int,
) -> tuple[list[int], float, int] | None:
    """One pass of the paper's DO-loop; None if it does not converge."""
    eps0 = sum(g) / nprocs

    def counts_at(tau: float, shrink: bool) -> list[int]:
        eps = eps0 / (1.0 + tau) if shrink else eps0 * (1.0 + tau)
        return [max(m, c) for m, c in zip(mins, _counts(g, eps))]

    start = counts_at(0.0, shrink=True)
    if sum(start) == nprocs:
        return start, 0.0, 0
    shrink = sum(start) < nprocs
    tau = 0.0
    for it in range(1, max_iters + 1):
        tau += dtau
        counts = counts_at(tau, shrink)
        total = sum(counts)
        if total == nprocs:
            return counts, tau, it
        # Crossed NP without hitting it exactly: integer jump skipped the
        # target; the tolerance loop cannot converge for this g.
        if (shrink and total > nprocs) or (not shrink and total < nprocs):
            return None
    return None


def _final_tau(g: list[float], counts: list[int], nprocs: int) -> float:
    """Imbalance measure consistent with the paper's tau semantics."""
    eps0 = sum(g) / nprocs
    worst = max(gv / c for gv, c in zip(g, counts))
    return max(0.0, worst / eps0 - 1.0)
