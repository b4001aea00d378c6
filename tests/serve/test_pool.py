"""Warm worker pool: execution, crash recovery, timeouts, lifecycle."""

import os
import signal
import threading
import time

import pytest

from repro.serve import (
    JobExecutionError,
    JobTimeout,
    PoolError,
    WorkerCrash,
    WorkerPool,
    run_job_bytes,
)
from repro.serve.pool import pool_available

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
        pool_available() is not None, reason=pool_available() or ""
    ),
    pytest.mark.usefixtures("inject_faults"),
]


@pytest.fixture
def pool(inject_faults):
    p = WorkerPool(workers=2, job_timeout=60.0)
    p.start()
    yield p
    p.close()


class TestExecute:
    def test_payload_matches_direct_run(self, pool):
        payload, attempts = pool.execute(tiny_spec())
        assert attempts == 1
        assert payload == run_job_bytes(tiny_spec())

    def test_concurrent_callers_multiplex(self, pool):
        results = {}

        def call(i):
            results[i] = pool.execute(tiny_spec())[0]

        threads = [
            threading.Thread(target=call, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = run_job_bytes(tiny_spec())
        assert len(results) == 6
        assert all(v == expected for v in results.values())

    def test_requires_start(self):
        p = WorkerPool(workers=1)
        with pytest.raises(PoolError, match="not running"):
            p.execute(tiny_spec())
        p.close()

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)
        with pytest.raises(ValueError):
            WorkerPool(max_retries=-1)


class TestCrashRecovery:
    def test_crash_once_is_retried_transparently(self, pool):
        payload, attempts = pool.execute(fault_spec(CRASH_ONCE))
        assert attempts == 2
        assert pool.crashes == 1
        assert payload == run_job_bytes(fault_spec(CRASH_ONCE))

    def test_persistent_crash_exhausts_retries(self):
        p = WorkerPool(workers=1, max_retries=1)
        p.start()
        try:
            with pytest.raises(WorkerCrash) as exc_info:
                p.execute(fault_spec(CRASH))
            assert exc_info.value.attempts == 2
            assert p.crashes == 2
        finally:
            p.close()

    def test_pool_survives_crash_and_serves_next_job(self, pool):
        with pytest.raises(WorkerCrash):
            pool.execute(fault_spec(CRASH))
        payload, _ = pool.execute(tiny_spec())
        assert payload == run_job_bytes(tiny_spec())

    def test_zero_retries_fails_first_crash(self):
        p = WorkerPool(workers=1, max_retries=0)
        p.start()
        try:
            with pytest.raises(WorkerCrash) as exc_info:
                p.execute(fault_spec(CRASH_ONCE))
            assert exc_info.value.attempts == 1
        finally:
            p.close()


class TestTimeout:
    def test_slow_job_times_out_and_pool_recovers(self):
        p = WorkerPool(workers=1, job_timeout=0.5)
        p.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(JobTimeout, match="per-job timeout"):
                p.execute(fault_spec(SLEEP + 30))
            assert time.monotonic() - t0 < 10.0  # killed, not waited out
            # The killed worker was replaced; pool still serves.
            payload, _ = p.execute(tiny_spec(), timeout=60.0)
            assert payload == run_job_bytes(tiny_spec())
        finally:
            p.close()

    def test_stopped_worker_is_killed_reaped_and_replaced(self):
        """The SIGKILL rung of the shared stop ladder: a worker stopped
        by SIGSTOP never acts on the SIGTERM a timeout sends first."""
        with deadline(30), WorkerPool(workers=1, job_timeout=1.0) as p:
            pid = p._all[0].proc.pid
            stopper = threading.Timer(0.3, os.kill, (pid, signal.SIGSTOP))
            stopper.start()
            with pytest.raises(JobTimeout):
                p.execute(fault_spec(SLEEP + 3))
            stopper.join()
            assert pid_gone(pid)
            assert p.crashes == 1
            payload, _ = p.execute(tiny_spec(), timeout=60.0)
            assert payload == run_job_bytes(tiny_spec())

    def test_per_call_timeout_overrides_default(self, pool):
        with pytest.raises(JobTimeout):
            pool.execute(fault_spec(SLEEP + 30), timeout=0.5)


class TestJobErrors:
    def test_program_error_is_typed_and_not_retried(self, pool):
        with pytest.raises(JobExecutionError) as exc_info:
            pool.execute(fault_spec(ERROR + 7))
        assert exc_info.value.kind == "RuntimeError"
        assert exc_info.value.message == "injected 7"
        assert pool.crashes == 0  # a raising job is not a crash

    def test_rankfailure_detail_travels(self, pool):
        with pytest.raises(JobExecutionError) as exc_info:
            pool.execute(fault_spec(RANKFAIL))
        err = exc_info.value
        assert err.kind == "RankFailure"
        assert err.detail["failed"] == {"1": 0.0}
        assert err.detail["nranks"] == 3

    def test_bad_spec_error_travels(self, pool):
        # Bypass client-side validation to prove the worker-side check.
        from repro.serve.jobs import JobSpec

        bad = JobSpec("nosuchcase")
        with pytest.raises(JobExecutionError) as exc_info:
            pool.execute(bad)
        assert exc_info.value.kind == "JobSpecError"


class TestLifecycle:
    def test_close_is_idempotent_and_execute_after_close_fails(self, pool):
        pool.close()
        pool.close()
        with pytest.raises(PoolError):
            pool.execute(tiny_spec())

    def test_context_manager(self):
        with WorkerPool(workers=1, job_timeout=60.0) as p:
            payload, _ = p.execute(tiny_spec())
        assert payload

