"""Simulated MIMD distributed-memory machine.

This subpackage is the substitute for the paper's IBM SP2 / IBM SP / Cray
YMP hardware and its MPI library (see DESIGN.md section 3).  Rank programs
are Python coroutines that exchange messages through a discrete-event
network model; all times are *virtual seconds* derived from charged
floating-point work and modeled message costs, so experiments are exactly
reproducible.

Typical use::

    from repro.machine import MachineSpec, Simulator, sp2

    def program(comm):
        yield from comm.compute(1.0e6)          # charge 1 Mflop
        if comm.rank == 0:
            yield from comm.send(1, tag=7, payload=b"x" * 100, nbytes=100)
        elif comm.rank == 1:
            msg, status = yield from comm.recv(0, tag=7)
        yield from comm.barrier()

    sim = Simulator(machine=sp2(nodes=2))
    sim.spawn_all(program)
    result = sim.run()
    print(result.elapsed)     # virtual seconds
"""

from repro.machine.spec import (
    NodeSpec,
    NetworkSpec,
    MachineSpec,
    sp2,
    sp,
    cray_ymp,
    MACHINE_PRESETS,
    machine_preset,
)
from repro.machine.event import Message, Mailbox, ANY_SOURCE, ANY_TAG
from repro.machine.simmpi import MAX_USER_TAG, Comm, Status, describe_tag
from repro.machine.faults import FaultSpec, FaultPlan, RankFailure
from repro.machine.scheduler import Simulator, DeadlockError
from repro.machine.metrics import PhaseRollup, RankMetrics

__all__ = [
    "NodeSpec",
    "NetworkSpec",
    "MachineSpec",
    "sp2",
    "sp",
    "cray_ymp",
    "MACHINE_PRESETS",
    "machine_preset",
    "Message",
    "Mailbox",
    "ANY_SOURCE",
    "ANY_TAG",
    "MAX_USER_TAG",
    "Comm",
    "Status",
    "describe_tag",
    "FaultSpec",
    "FaultPlan",
    "RankFailure",
    "Simulator",
    "DeadlockError",
    "PhaseRollup",
    "RankMetrics",
]
