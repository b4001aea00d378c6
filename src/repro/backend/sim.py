"""The simulator backend: the existing scheduler behind the backend API.

This is a thin adapter — it builds a
:class:`repro.machine.scheduler.Simulator` with exactly the arguments it
always took and spawns the programs in rank order, so a run through
``get_backend("sim")`` is *bit-identical* (virtual clocks, metrics,
trace events, sanitizer findings) to constructing the scheduler
directly.  The golden-trace regression battery pins this equivalence.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.backend.api import BackendResult, ExecutionBackend, RankProgram
from repro.machine.scheduler import Simulator

__all__ = ["SimBackend"]


class SimBackend(ExecutionBackend):
    """Conservative discrete-event execution over modeled virtual time.

    * deterministic: results and traces are a pure function of inputs;
    * all rank generators live in one process, so objects their
      programs close over are shared between ranks;
    * supports the full feature surface — fault injection, sanitizer
      shadow layer, carried metrics rows (and with them the clocks).
    """

    name = "sim"
    measured = False

    def run(
        self,
        machine: Any,
        programs: Sequence[RankProgram],
        *,
        tracer: Any = None,
        sanitizer: Any = None,
        fault_plan: Any = None,
        initial_metrics: Sequence[Any] | None = None,
    ) -> BackendResult:
        sim = Simulator(
            machine,
            tracer=tracer,
            fault_plan=fault_plan,
            initial_metrics=initial_metrics,
            sanitizer=sanitizer,
        )
        for program in programs:
            sim.spawn(program)
        return sim.run()
