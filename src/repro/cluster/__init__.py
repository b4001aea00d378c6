"""Multi-host socket-based execution for rank programs.

The package behind ``--backend cluster``: a head-side supervisor
(:mod:`repro.cluster.head`), per-host node daemons
(:mod:`repro.cluster.node`), the length-framed wire protocol between
them (:mod:`repro.cluster.protocol`, which also carries each rank
program as one pickle) and rank-to-node placement
(:mod:`repro.cluster.placement`).  See ``docs/cluster.md`` for the
topology, failure model and a two-node localhost walkthrough.
"""

from repro.cluster.backend import ClusterBackend, cluster_available
from repro.cluster.head import ClusterSupervisor
from repro.cluster.node import NodeDaemon
from repro.cluster.placement import Placement
from repro.cluster.protocol import (
    CLUSTER_PROTOCOL_VERSION,
    ClusterProtocolError,
    FrameTooLarge,
    HandshakeError,
)

__all__ = [
    "ClusterBackend",
    "cluster_available",
    "ClusterSupervisor",
    "NodeDaemon",
    "Placement",
    "CLUSTER_PROTOCOL_VERSION",
    "ClusterProtocolError",
    "FrameTooLarge",
    "HandshakeError",
]
