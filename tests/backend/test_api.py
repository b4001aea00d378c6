"""Backend registry and API-surface contracts."""

from __future__ import annotations

import pytest

from repro.backend import (
    BackendResult,
    BackendUnavailable,
    ExecutionBackend,
    SimBackend,
    available_backends,
    backend_help,
    get_backend,
    register_backend,
)
from repro.machine import sp2


def test_sim_always_available():
    assert "sim" in available_backends()
    engine = get_backend("sim")
    assert isinstance(engine, SimBackend)
    assert engine.measured is False


def test_default_backend_is_sim():
    assert get_backend().name == "sim"


def test_both_backends_registered():
    help_ = backend_help()
    assert set(help_) >= {"sim", "mp"}
    for doc in help_.values():
        assert doc  # every backend documents itself


def test_unknown_backend_raises():
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("openmp")


def test_unavailable_backend_raises_typed():
    def never(**_options):  # pragma: no cover - must not be called
        raise AssertionError("factory of an unavailable backend ran")

    register_backend(
        "never", never, doc="test-only", available=lambda: "always offline"
    )
    try:
        with pytest.raises(BackendUnavailable, match="always offline"):
            get_backend("never")
        assert "never" not in available_backends()
    finally:
        from repro.backend.api import _REGISTRY

        _REGISTRY.pop("never", None)


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
