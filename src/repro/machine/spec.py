"""Machine specifications: node compute rates and interconnect parameters.

The presets are calibrated to the machines in the paper's evaluation
(section 4.0):

* **IBM SP2** (NASA Ames): RS/6000 POWER2 nodes, 66.7 MHz clock, peak
  interconnect 40 MB/s.  The paper measures 10--31 Mflops/node sustained
  for this workload, so the effective node rate is set to 30 Mflops.
* **IBM SP** (CEWES): POWER2 Super Chip nodes, 135 MHz, interconnect
  110 MB/s.  Paper measures 16--52 Mflops/node; effective rate 55 Mflops.
* **Cray YMP/864** (single head): 333 Mflops peak; Table 6 implies one SP
  node sustains ~1.0--1.2 YMP units and one SP2 node ~0.5--0.7, giving an
  effective vector rate near 48 Mflops for this (well-vectorized) code.

Rates are *effective sustained* rates for the overset CFD workload, not
peak: the simulator converts charged flops to time with a single divide,
so all workload-dependent inefficiency is folded into the rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class NodeSpec:
    """A single compute node.

    Parameters
    ----------
    flops:
        Effective sustained floating-point rate in flop/s for this
        workload class.
    cache_boost:
        Multiplier applied when the working set per node drops below
        ``cache_points`` gridpoints.  Models the super-scalar speedups the
        paper attributes to improved cache behaviour at short loop lengths
        (section 4.1).  1.0 disables the effect.
    cache_points:
        Working-set threshold (gridpoints per node) below which
        ``cache_boost`` applies.
    """

    flops: float
    cache_boost: float = 1.0
    cache_points: int = 0

    def effective_flops(self, points_per_node: float | None = None) -> float:
        """Effective flop rate, optionally cache-adjusted for a working set."""
        rate = self.flops
        if (
            points_per_node is not None
            and self.cache_points > 0
            and points_per_node < self.cache_points
        ):
            rate *= self.cache_boost
        return rate


@dataclass(frozen=True)
class NetworkSpec:
    """Point-to-point interconnect model (LogGP-lite).

    A message of ``n`` bytes sent at sender-clock ``t`` occupies the sender
    for ``overhead + n / bandwidth`` seconds (injection) and arrives at the
    destination ``latency`` seconds after injection completes.  Messages a
    rank sends to itself cost ``self_copy`` seconds per byte plus overhead.

    ``poll_overhead`` is charged for every non-blocking probe so that
    polling loops advance virtual time (and terminate).
    """

    latency: float
    bandwidth: float
    overhead: float = 5.0e-6
    poll_overhead: float = 1.0e-6
    self_copy: float = 1.0e-9  # s/byte for rank-local "messages"

    def injection_time(self, nbytes: int) -> float:
        """Time the sender is busy injecting ``nbytes`` into the network."""
        return self.overhead + nbytes / self.bandwidth

    def transfer_time(self, nbytes: int) -> float:
        """Total sender-clock to arrival delay for ``nbytes``."""
        return self.injection_time(nbytes) + self.latency


@dataclass(frozen=True)
class MachineSpec:
    """A homogeneous distributed-memory machine: N identical nodes + network."""

    name: str
    nodes: int
    node: NodeSpec
    network: NetworkSpec

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"machine needs >= 1 node, got {self.nodes}")

    def with_nodes(self, nodes: int) -> "MachineSpec":
        """Same machine with a different node count (for speedup sweeps)."""
        return replace(self, nodes=nodes)

    def compute_time(self, flops: float, points_per_node: float | None = None) -> float:
        """Seconds to execute ``flops`` on one node."""
        return flops / self.node.effective_flops(points_per_node)


def sp2(nodes: int = 1) -> MachineSpec:
    """IBM SP2 at NASA Ames (66.7 MHz POWER2, 40 MB/s switch)."""
    return MachineSpec(
        name="IBM SP2",
        nodes=nodes,
        node=NodeSpec(flops=30.0e6, cache_boost=1.15, cache_points=6000),
        network=NetworkSpec(latency=60.0e-6, bandwidth=40.0e6),
    )


def sp(nodes: int = 1) -> MachineSpec:
    """IBM SP at CEWES (135 MHz P2SC, 110 MB/s switch)."""
    return MachineSpec(
        name="IBM SP",
        nodes=nodes,
        node=NodeSpec(flops=55.0e6, cache_boost=1.25, cache_points=6000),
        network=NetworkSpec(latency=40.0e-6, bandwidth=110.0e6),
    )


def cray_ymp() -> MachineSpec:
    """Single-processor Cray YMP/864 head (Table 6 reference machine)."""
    return MachineSpec(
        name="Cray YMP/864 (1 cpu)",
        nodes=1,
        node=NodeSpec(flops=48.0e6),
        # Single node: network parameters are irrelevant but must exist.
        network=NetworkSpec(latency=1.0e-6, bandwidth=1.0e9),
    )


MACHINE_PRESETS = {"sp2": sp2, "sp": sp, "ymp": cray_ymp}


def machine_preset(name: str, nodes: int) -> MachineSpec:
    """The preset called ``name`` sized to ``nodes`` nodes.

    The one name -> :class:`MachineSpec` path (CLI, ``repro bench``,
    serve jobs and scenario files all resolve through it).  ``ymp`` is
    a single processor head whatever ``nodes`` says; an unknown name
    (or a node count below 1) is a :class:`ValueError`.
    """
    try:
        preset = MACHINE_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown machine {name!r}; choose from {sorted(MACHINE_PRESETS)}"
        ) from None
    return cray_ymp() if preset is cray_ymp else preset(nodes=nodes)
