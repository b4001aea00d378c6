"""Server + client integration: byte identity, failures, drain, spans.

The central acceptance test lives here: a deterministic sim-backend job
returns **byte-identical** payloads whether run direct
(:func:`run_job_bytes`), through a cold server, or served from the
cache — and a restarted daemon with a spill directory keeps that
guarantee across its lifetime.
"""

import os
import threading
import time

import pytest

from repro.obs import SpanTracer
from repro.serve import (
    JobFailedError,
    ReproServer,
    ServeClient,
    ServeConnectError,
    ServeProtocolError,
    run_job_bytes,
)

from tests.conftest import deadline, pid_gone
from tests.serve.conftest import (
    CRASH_ONCE,
    ERROR,
    RANKFAIL,
    SLEEP,
    fault_spec,
    tiny_spec,
)


class TestByteIdentity:
    def test_direct_cold_and_cache_hit_are_byte_identical(self, server):
        spec = tiny_spec()
        direct = run_job_bytes(spec)
        with ServeClient(server.socket_path) as c:
            cold = c.run(spec, timeout=60)
            hit = c.run(spec, timeout=60)
        assert cold["cached"] is False
        assert hit["cached"] is True
        assert cold["payload"].encode() == direct
        assert hit["payload"].encode() == direct
        assert cold["sha"] == spec.sha() == hit["sha"]

    def test_identity_survives_daemon_restart(self, socket_path, tmp_path):
        spec = tiny_spec()
        direct = run_job_bytes(spec)
        with ReproServer(
            socket_path, workers=1, cache_dir=str(tmp_path), job_timeout=60
        ) as srv:
            with ServeClient(socket_path) as c:
                first = c.run(spec, timeout=60)
            assert first["payload"].encode() == direct
        # Second daemon, same spill dir: answered from disk, no run.
        with ReproServer(
            socket_path, workers=1, cache_dir=str(tmp_path), job_timeout=60
        ) as srv:
            with ServeClient(socket_path) as c:
                again = c.run(spec, timeout=60)
            assert again["cached"] is True
            assert again["payload"].encode() == direct
            assert srv.cache.stats()["hits"] == 1

    def test_no_cache_forces_fresh_run_same_bytes(self, server):
        spec = tiny_spec()
        with ServeClient(server.socket_path) as c:
            a = c.run(spec, timeout=60)
            b = c.run(spec, cache=False, timeout=60)
        assert b["cached"] is False
        assert a["payload"] == b["payload"]

    def test_mp_jobs_are_never_cached(self, server):
        pytest.importorskip("multiprocessing")
        from repro.backend.mp import mp_available

        if mp_available() is not None:
            pytest.skip(mp_available())
        spec = tiny_spec(backend="mp")
        with ServeClient(server.socket_path) as c:
            a = c.run(spec, timeout=120)
            b = c.run(spec, timeout=120)
        assert a["cached"] is False
        assert b["cached"] is False  # measured payloads never hit cache


class TestFailurePropagation:
    def test_rankfailure_reconstructs_client_side(self, server):
        with ServeClient(server.socket_path) as c:
            with pytest.raises(JobFailedError) as exc_info:
                c.run(fault_spec(RANKFAIL), timeout=60)
        rf = exc_info.value.rank_failure
        assert rf is not None
        assert rf.failed == {1: 0.0}
        assert rf.nranks == 3

    def test_runtime_error_is_typed(self, server):
        with ServeClient(server.socket_path) as c:
            with pytest.raises(JobFailedError) as exc_info:
                c.run(fault_spec(ERROR + 1), timeout=60)
        assert exc_info.value.kind == "RuntimeError"
        assert exc_info.value.message == "injected 1"
        assert exc_info.value.rank_failure is None

    def test_failed_jobs_are_not_cached(self, server):
        spec = fault_spec(ERROR + 2)
        with ServeClient(server.socket_path) as c:
            for _ in range(2):
                with pytest.raises(JobFailedError):
                    c.run(spec, timeout=60)
            jobs = [j for j in c.jobs() if j["sha"] == spec.sha()]
        assert len(jobs) == 2
        assert all(j["state"] == "failed" for j in jobs)
        assert spec.sha() not in server.cache

    def test_worker_crash_recovery_mid_job(self, server):
        """The first attempt kills the worker mid-job; the retry must
        succeed with the payload a direct run gives."""
        spec = fault_spec(CRASH_ONCE)
        with ServeClient(server.socket_path) as c:
            rec = c.run(spec, timeout=60)
        assert rec["attempts"] == 2
        assert sum(w.respawns for w in server._workers) >= 1
        assert rec["payload"].encode() == run_job_bytes(spec)

    def test_bad_submission_is_protocol_error(self, server):
        with ServeClient(server.socket_path) as c:
            with pytest.raises(ServeProtocolError, match="unknown case"):
                c.submit({"case": "nosuch"})

    def test_unknown_job_lookup(self, server):
        with ServeClient(server.socket_path) as c:
            with pytest.raises(JobFailedError) as exc_info:
                c.result(job_id=424242)
        assert exc_info.value.kind == "UnknownJob"


class TestCoalescing:
    def test_identical_inflight_submissions_share_one_record(self, server):
        spec = tiny_spec(nsteps=2)  # a bit slower, to stay in flight
        ids = []
        lock = threading.Lock()

        def submit():
            with ServeClient(server.socket_path) as c:
                rec = c.submit(spec)
                with lock:
                    ids.append(rec["id"])
                c.wait(job_id=rec["id"], timeout=60)

        threads = [threading.Thread(target=submit) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # All six either coalesced onto the first record or were served
        # from cache after it finished; never six executions.
        with ServeClient(server.socket_path) as c:
            stats = c.stats()
        assert len(set(ids)) < 6
        assert stats["cache"]["misses"] <= 6


class TestOps:
    def test_ping(self, server):
        with ServeClient(server.socket_path) as c:
            pong = c.ping()
        assert pong["protocol"] == "repro-serve/2"
        assert pong["workers"] == 2
        assert pong["pid"] == os.getpid()

    def test_jobs_listing_ordered_by_id(self, server):
        with ServeClient(server.socket_path) as c:
            c.run(tiny_spec(), timeout=60)
            c.run(tiny_spec(nsteps=2), timeout=60)
            jobs = c.jobs()
        assert [j["id"] for j in jobs] == sorted(j["id"] for j in jobs)
        assert {j["state"] for j in jobs} == {"done"}

    def test_result_by_sha_returns_latest(self, server):
        spec = tiny_spec()
        with ServeClient(server.socket_path) as c:
            c.run(spec, timeout=60)
            rec = c.result(sha=spec.sha())
        assert rec["state"] == "done"
        assert rec["payload"].encode() == run_job_bytes(spec)

    def test_wait_timeout_reports_not_hangs(self, server):
        with ServeClient(server.socket_path) as c:
            rec = c.submit(fault_spec(SLEEP + 1), cache=False)
            with pytest.raises(Exception, match="timed out"):
                c.wait(job_id=rec["id"], timeout=0.2)
            # The job still completes; a later wait succeeds.
            done = c.wait(job_id=rec["id"], timeout=60)
        assert done["state"] == "done"

    def test_payload_opt_out(self, server):
        spec = tiny_spec()
        with ServeClient(server.socket_path) as c:
            c.run(spec, timeout=60)
            rec = c.result(sha=spec.sha(), payload=False)
        assert rec["state"] == "done"
        assert "payload" not in rec

    def test_stats_counters(self, server):
        with ServeClient(server.socket_path) as c:
            c.run(tiny_spec(), timeout=60)
            c.run(tiny_spec(), timeout=60)
            stats = c.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["jobs"]["done"] == 2
        assert stats["workers"] == 2


class TestJobTable:
    def test_only_newest_finished_records_are_kept(self, server, monkeypatch):
        monkeypatch.setattr("repro.serve.server.MAX_FINISHED", 2)
        spec = tiny_spec()
        with ServeClient(server.socket_path) as c:
            c.run(spec, timeout=60)
            hits = [c.run(spec, timeout=60) for _ in range(4)]
            assert all(rec["cached"] for rec in hits)
            assert [j["id"] for j in c.jobs()] == [r["id"] for r in hits[2:]]
            with pytest.raises(JobFailedError) as exc_info:
                c.result(job_id=hits[0]["id"])
        assert exc_info.value.kind == "UnknownJob"


class TestSpans:
    def test_each_executed_job_emits_one_span(self, socket_path):
        tracer = SpanTracer()
        tracer.clock = "wall"  # spans are measured host time
        with ReproServer(
            socket_path, workers=2, job_timeout=60, tracer=tracer
        ):
            with ServeClient(socket_path) as c:
                c.run(tiny_spec(), timeout=60)
                c.run(tiny_spec(), timeout=60)  # cache hit: no span
                c.run(tiny_spec(nsteps=2), timeout=60)
        # ops are (rank, phase, kind, t0, t1, flops, nbytes) tuples
        spans = [op for op in tracer.ops if op[1].startswith("job:")]
        assert len(spans) == 2  # two executions, one cache hit
        for _rank, _phase, kind, t0, t1, _flops, nbytes in spans:
            assert kind == "compute"
            assert t1 >= t0
            assert nbytes > 0  # payload size travels on the span


class TestLifecycle:
    def test_draining_rejects_new_submissions(self, socket_path):
        srv = ReproServer(socket_path, workers=1, job_timeout=60)
        srv.start()
        try:
            srv._draining.set()
            with ServeClient(socket_path) as c:
                with pytest.raises(JobFailedError) as exc_info:
                    c.submit(tiny_spec(), cache=False)
            assert exc_info.value.kind == "Draining"
        finally:
            srv.shutdown()

    def test_drain_finishes_inflight_jobs(self, inject_faults, socket_path):
        srv = ReproServer(socket_path, workers=1, job_timeout=60)
        srv.start()
        with ServeClient(socket_path) as c:
            rec = c.submit(fault_spec(SLEEP + 0.5), cache=False)
            srv.shutdown()
            job = srv._jobs[rec["id"]]
        assert job.state == "done"
        assert not os.path.exists(socket_path)

    def test_drain_that_gives_up_fails_running_job(
        self, inject_faults, socket_path, monkeypatch
    ):
        """A drain that gives up kills the busy worker at once and does
        not respawn it; the running job ends ``failed``."""
        monkeypatch.setattr("repro.serve.server.DRAIN_TIMEOUT", 0.5)
        with deadline(30):
            srv = ReproServer(socket_path, workers=1, job_timeout=60)
            srv.start()
            pid = srv._workers[0].child.proc.pid
            with ServeClient(socket_path) as c:
                rec = c.submit(fault_spec(SLEEP + 30), cache=False)
            job = srv._jobs[rec["id"]]
            while job.state == "queued":
                time.sleep(0.01)
            t0 = time.monotonic()
            srv.shutdown()
            assert time.monotonic() - t0 < 5.0
        assert job.state == "failed"
        assert job.error["kind"] == "PoolError"
        assert pid_gone(pid)
        assert srv._workers[0].child.proc is None  # not respawned
        assert not os.path.exists(socket_path)

    def test_stale_socket_is_replaced(self, socket_path):
        import socket as s

        stale = s.socket(s.AF_UNIX, s.SOCK_STREAM)
        stale.bind(socket_path)
        stale.close()  # bound then closed: a stale file remains
        with ReproServer(socket_path, workers=1, job_timeout=60):
            with ServeClient(socket_path) as c:
                assert c.ping()["ok"]

    def test_live_socket_is_refused(self, socket_path):
        with ReproServer(socket_path, workers=1, job_timeout=60):
            second = ReproServer(socket_path, workers=1)
            with pytest.raises(OSError, match="live daemon"):
                second._bind()

    def test_shutdown_op_drains_and_exits(self, socket_path):
        srv = ReproServer(socket_path, workers=1, job_timeout=60)
        srv.start()
        with ServeClient(socket_path) as c:
            c.run(tiny_spec(), timeout=60)
            resp = c.shutdown()
        assert resp["draining"] is True
        # The daemon tears itself down: socket disappears.
        for _ in range(100):
            if not os.path.exists(socket_path):
                break
            time.sleep(0.1)
        assert not os.path.exists(socket_path)
        assert srv._stop.is_set()

    def test_client_error_on_missing_socket(self):
        with pytest.raises(ServeConnectError, match="is `repro serve`"):
            ServeClient("/tmp/definitely-not-a-socket.sock")
