"""Shared fixtures for the serve battery.

Unix socket paths are capped around 107 bytes, so sockets live under a
short ``/tmp`` prefix rather than pytest's deep ``tmp_path``.

Faults are injected from the test side: :func:`inject_faults` patches
``repro.serve.pool.run_job_bytes`` (the pool imports it by name) before
the pool forks, so every warm worker, and every replacement forked after
a crash, runs :func:`faulty_run_job_bytes`.  A job is faulty when its
``f0`` is one of the sentinels below; ``f0`` is part of the job's sha,
so a faulty job can never alias a clean one in the cache.
"""

import os
import tempfile
import time

import pytest

from repro.serve import JobSpec, ReproServer, run_job_bytes

#: The smallest real case — ~40 ms per run — used throughout the battery.
TINY = dict(case="airfoil", nodes=3, scale=0.05, nsteps=1)


def tiny_spec(**overrides) -> JobSpec:
    kw = dict(TINY)
    kw.update(overrides)
    return JobSpec(**kw)


#: The worker hard-exits before running the job, on every attempt.
CRASH = 1e6
#: The worker hard-exits on every other attempt: the first attempt of an
#: execution crashes and its retry runs the job.
CRASH_ONCE = 2e6
#: The job raises a synthetic ``RankFailure(failed={1: 0.0})``.
RANKFAIL = 3e6
#: ``SLEEP + s``: the job sleeps ``s`` host seconds, then runs.
SLEEP = 4e6
#: ``ERROR + k``: the job raises ``RuntimeError(f"injected {k}")``.
ERROR = 5e6


def fault_spec(f0: float, **overrides) -> JobSpec:
    """A tiny job carrying the fault sentinel ``f0``."""
    return tiny_spec(f0=f0, **overrides)


def faulty_run_job_bytes(marker: str):
    def run(spec: JobSpec) -> bytes:
        f0 = spec.f0
        if f0 == CRASH:
            os._exit(13)
        if f0 == CRASH_ONCE:
            if os.path.exists(marker):
                os.unlink(marker)
            else:
                open(marker, "w").close()
                os._exit(13)
        elif f0 == RANKFAIL:
            from repro.machine.faults import RankFailure

            raise RankFailure(
                failed={1: 0.0}, time=0.0, blocked=[], completed=[],
                nranks=spec.nodes,
            )
        elif SLEEP <= f0 < ERROR:
            time.sleep(f0 - SLEEP)
        elif ERROR <= f0 < ERROR + 1e6:
            raise RuntimeError(f"injected {f0 - ERROR:g}")
        return run_job_bytes(spec)

    return run


@pytest.fixture
def inject_faults(tmp_path, monkeypatch):
    """Make pools forked while this fixture is active honour the fault
    sentinels (request it before any fixture that starts a pool)."""
    monkeypatch.setattr(
        "repro.serve.pool.run_job_bytes",
        faulty_run_job_bytes(str(tmp_path / "crashed")),
    )


@pytest.fixture
def socket_path():
    path = tempfile.mktemp(prefix="rsv-", suffix=".sock", dir="/tmp")
    yield path
    if os.path.exists(path):
        os.unlink(path)


@pytest.fixture
def server(inject_faults, socket_path):
    srv = ReproServer(socket_path, workers=2, job_timeout=60.0)
    srv.start()
    yield srv
    srv.shutdown(drain_timeout=10.0)
