"""The warm worker: execution, crash recovery, timeouts, lifecycle."""

import os
import signal
import threading
import time

import pytest

from repro.backend.mp import mp_available
from repro.serve import (
    JobExecutionError,
    JobTimeout,
    PoolError,
    ReproServer,
    WarmWorker,
    WorkerCrash,
    run_job_bytes,
)
from repro.serve.pool import close_workers

from tests.conftest import deadline, pid_gone
from tests.serve.conftest import (
    CRASH,
    CRASH_ONCE,
    ERROR,
    RANKFAIL,
    SLEEP,
    fault_spec,
    tiny_spec,
)

pytestmark = [
    pytest.mark.skipif(
        mp_available() is not None, reason=str(mp_available())
    ),
    pytest.mark.usefixtures("inject_faults"),
]


@pytest.fixture
def warm(inject_faults):
    """Warm workers forked under ``inject_faults``, closed afterwards."""
    workers = []

    def make(**kw):
        workers.append(WarmWorker(**kw))
        return workers[-1]

    yield make
    close_workers(workers)


@pytest.fixture
def worker(warm):
    return warm(job_timeout=60.0)


class TestExecute:
    def test_payload_matches_direct_run(self, worker):
        payload, attempts = worker.execute(tiny_spec())
        assert attempts == 1
        assert payload == run_job_bytes(tiny_spec())

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            ReproServer("/tmp/unused.sock", workers=0)
        with pytest.raises(ValueError):
            ReproServer("/tmp/unused.sock", max_retries=-1)


class TestCrashRecovery:
    def test_crash_once_is_retried_transparently(self, worker):
        payload, attempts = worker.execute(fault_spec(CRASH_ONCE))
        assert attempts == 2
        assert worker.respawns == 1
        assert payload == run_job_bytes(fault_spec(CRASH_ONCE))

    def test_persistent_crash_exhausts_retries(self, warm):
        w = warm(max_retries=1)
        with pytest.raises(WorkerCrash) as exc_info:
            w.execute(fault_spec(CRASH))
        assert exc_info.value.attempts == 2
        assert w.respawns == 2

    def test_pool_survives_crash_and_serves_next_job(self, worker):
        with pytest.raises(WorkerCrash):
            worker.execute(fault_spec(CRASH))
        payload, _ = worker.execute(tiny_spec())
        assert payload == run_job_bytes(tiny_spec())

    def test_zero_retries_fails_first_crash(self, warm):
        w = warm(max_retries=0)
        with pytest.raises(WorkerCrash) as exc_info:
            w.execute(fault_spec(CRASH_ONCE))
        assert exc_info.value.attempts == 1


class TestTimeout:
    def test_slow_job_times_out_and_pool_recovers(self, warm):
        w = warm(job_timeout=0.5)
        t0 = time.monotonic()
        with pytest.raises(JobTimeout, match="per-job timeout"):
            w.execute(fault_spec(SLEEP + 30))
        assert time.monotonic() - t0 < 10.0  # killed, not waited out
        # The killed process was replaced; the worker still serves.
        w.job_timeout = 60.0
        payload, _ = w.execute(tiny_spec())
        assert payload == run_job_bytes(tiny_spec())

    def test_stopped_worker_is_killed_reaped_and_replaced(self, warm):
        """The SIGKILL rung of the shared stop ladder: a worker stopped
        by SIGSTOP never acts on the SIGTERM a timeout sends first."""
        with deadline(30):
            w = warm(job_timeout=1.0)
            pid = w.child.proc.pid
            stopper = threading.Timer(0.3, os.kill, (pid, signal.SIGSTOP))
            stopper.start()
            with pytest.raises(JobTimeout):
                w.execute(fault_spec(SLEEP + 3))
            stopper.join()
            assert pid_gone(pid)
            assert w.respawns == 1
            w.job_timeout = 60.0
            payload, _ = w.execute(tiny_spec())
            assert payload == run_job_bytes(tiny_spec())


class TestJobErrors:
    def test_program_error_is_typed_and_not_retried(self, worker):
        with pytest.raises(JobExecutionError) as exc_info:
            worker.execute(fault_spec(ERROR + 7))
        assert exc_info.value.kind == "RuntimeError"
        assert exc_info.value.message == "injected 7"
        assert worker.respawns == 0  # a raising job is not a crash

    def test_rankfailure_detail_travels(self, worker):
        with pytest.raises(JobExecutionError) as exc_info:
            worker.execute(fault_spec(RANKFAIL))
        err = exc_info.value
        assert err.kind == "RankFailure"
        assert err.detail["failed"] == {"1": 0.0}
        assert err.detail["nranks"] == 3

    def test_bad_spec_error_travels(self, worker):
        # Bypass client-side validation to prove the worker-side check.
        from repro.serve.jobs import JobSpec

        bad = JobSpec("nosuchcase")
        with pytest.raises(JobExecutionError) as exc_info:
            worker.execute(bad)
        assert exc_info.value.kind == "JobSpecError"


class TestLifecycle:
    def test_close_is_idempotent_and_execute_after_close_fails(self, worker):
        close_workers([worker])
        close_workers([worker])
        assert worker.child.proc is None  # reaped
        with pytest.raises(PoolError, match="closed"):
            worker.execute(tiny_spec())
        assert worker.respawns == 0

    def test_abort_kills_a_busy_worker_without_respawn(self, warm):
        with deadline(30):
            w = warm(job_timeout=60.0)
            pid = w.child.proc.pid
            aborter = threading.Timer(0.3, w.abort)
            aborter.start()
            t0 = time.monotonic()
            with pytest.raises(PoolError, match="closed"):
                w.execute(fault_spec(SLEEP + 30))
            aborter.join()
            assert time.monotonic() - t0 < 10.0
            assert pid_gone(pid)
            assert w.child.proc is None  # no replacement was forked
