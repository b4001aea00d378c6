"""Backend name table and API-surface contracts."""

from __future__ import annotations

import pytest

from repro.backend import (
    BACKENDS,
    BackendResult,
    BackendUnavailable,
    ExecutionBackend,
    SimBackend,
    get_backend,
)
from repro.machine import sp2


def test_sim_always_available():
    engine = get_backend("sim")
    assert isinstance(engine, SimBackend)
    assert engine.measured is False


def test_default_backend_is_sim():
    assert get_backend().name == "sim"


def test_both_backends_registered():
    assert BACKENDS == ("sim", "mp", "cluster")


def test_unknown_backend_raises():
    with pytest.raises(ValueError, match="known backends: cluster, mp, sim"):
        get_backend("openmp")


def test_unavailable_backend_raises_typed(monkeypatch):
    # Each measured engine checks its host once, in its constructor.
    import repro.backend.mp as mp
    import repro.cluster.backend as cluster

    monkeypatch.setattr(mp, "mp_available", lambda: "always offline")
    monkeypatch.setattr(cluster, "cluster_available", lambda: "no nodes")
    with pytest.raises(BackendUnavailable, match="'mp' unavailable: always"):
        get_backend("mp")
    with pytest.raises(BackendUnavailable, match="'cluster' unavailable: no"):
        get_backend("cluster")


def test_run_spmd_defaults_to_machine_nodes():
    def program(comm):
        yield from comm.compute(flops=1e6)
        return comm.rank

    out = get_backend("sim").run_spmd(sp2(nodes=3), program)
    assert isinstance(out, BackendResult)
    assert out.returns == [0, 1, 2]
    assert out.backend == "sim"
    assert out.measured is False
    assert out.failed_ranks == ()


def test_abstract_backend_cannot_instantiate():
    with pytest.raises(TypeError):
        ExecutionBackend()  # type: ignore[abstract]
