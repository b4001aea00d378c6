"""Fixtures shared across the test tree."""

import ast
import contextlib
import os
import signal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import settings

REPO = Path(__file__).resolve().parents[1]

# ``--hypothesis-profile=nightly`` (the CI schedule job, on
# ``tests/machine/test_scheduler_order.py`` and
# ``tests/connectivity/test_kernel_exact.py``) runs 10x the default 100
# examples and prints the ``@reproduce_failure`` blob of a failing one.
settings.register_profile("nightly", max_examples=1000, print_blob=True)


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail (rather than hang the suite) if the body outlives ``seconds``
    — ``pytest-timeout`` is not installed everywhere tier-1 runs."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def stops_itself(comm):
    """Rank program for the supervision battery: rank 1 SIGSTOPs itself
    before a barrier, so it neither reports nor dies nor obeys SIGTERM."""
    if comm.rank == 1:
        os.kill(os.getpid(), signal.SIGSTOP)
    yield from comm.barrier()
    return comm.rank


def pid_gone(pid: int) -> bool:
    """True once ``pid`` has been killed *and* reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.fixture(scope="session")
def _tree_run():
    """The CI gate, once per session: ``repro check src tests`` against
    the committed baseline, with ``ast.parse`` calls counted."""
    from repro.analysis import load_baseline, run_check

    with mock.patch.object(ast, "parse", wraps=ast.parse) as parse:
        report = run_check(
            [REPO / "src", REPO / "tests"],
            baseline=load_baseline(REPO / "analysis-baseline.json"),
            root=REPO,
        )
    return report, parse.call_count


@pytest.fixture(scope="session")
def tree_report(_tree_run):
    """The whole-tree :class:`~repro.analysis.CheckReport`; every
    self-check test reads this one run (~4 s) instead of redoing it."""
    return _tree_run[0]


@pytest.fixture(scope="session")
def tree_parse_count(_tree_run):
    return _tree_run[1]
