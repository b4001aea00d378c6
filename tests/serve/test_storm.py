"""Concurrent submission storms: N clients x M jobs against one daemon.

The daemon must (a) answer every request, (b) return byte-identical
payloads for every copy of a deterministic job no matter how requests
interleave, (c) execute far fewer jobs than it answers (cache +
coalescing), and (d) survive a storm that mixes clean jobs, failing
jobs and crash-injected jobs without wedging or cross-contaminating
records.
"""

import json
import threading

import pytest

from repro.serve import JobFailedError, ServeClient, run_job_bytes

from tests.serve.conftest import CRASH_ONCE, ERROR, fault_spec, tiny_spec


def _storm(socket_path, n_clients, per_client, make_spec):
    """Run ``n_clients`` threads, each its own connection, each
    submitting ``per_client`` jobs; returns (results, errors)."""
    results: list[tuple] = []
    errors: list[tuple] = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_clients)

    def client_main(cid):
        try:
            with ServeClient(socket_path, timeout=120.0) as c:
                barrier.wait(timeout=30)
                for j in range(per_client):
                    spec = make_spec(cid, j)
                    try:
                        rec = c.run(spec, timeout=90)
                        with lock:
                            results.append((cid, j, spec.sha(), rec))
                    except JobFailedError as exc:
                        with lock:
                            errors.append((cid, j, spec.sha(), exc))
        except Exception as exc:  # pragma: no cover - storm must not
            with lock:
                errors.append((cid, -1, "", exc))
            raise

    threads = [
        threading.Thread(target=client_main, args=(cid,))
        for cid in range(n_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180)
    assert not any(t.is_alive() for t in threads), "storm wedged"
    return results, errors


class TestIdenticalJobStorm:
    def test_all_copies_byte_identical_and_mostly_free(self, server):
        expected = run_job_bytes(tiny_spec())
        results, errors = _storm(
            server.socket_path, n_clients=8, per_client=5,
            make_spec=lambda cid, j: tiny_spec(),
        )
        assert errors == []
        assert len(results) == 40
        for _cid, _j, _sha, rec in results:
            assert rec["state"] == "done"
            assert rec["payload"].encode() == expected
        # 40 answers from at most a handful of executions.
        stats = server.cache.stats()
        assert stats["hits"] >= 30
        assert stats["misses"] <= 8


class TestDistinctJobStorm:
    def test_every_distinct_job_served_correctly(self, server):
        # 4 clients x 4 jobs over 4 distinct specs (nsteps 1..4): each
        # spec is submitted by every client, concurrently.
        specs = {j: tiny_spec(nsteps=j + 1) for j in range(4)}
        expected = {j: run_job_bytes(s) for j, s in specs.items()}
        results, errors = _storm(
            server.socket_path, n_clients=4, per_client=4,
            make_spec=lambda cid, j: specs[j],
        )
        assert errors == []
        assert len(results) == 16
        for _cid, j, sha, rec in results:
            assert sha == specs[j].sha()
            assert rec["payload"].encode() == expected[j], (
                f"payload mismatch for job {j}"
            )

    def test_payloads_never_cross_contaminate(self, server):
        """Each payload's embedded job config must match its sha."""
        specs = {j: tiny_spec(nsteps=j + 1) for j in range(3)}
        results, errors = _storm(
            server.socket_path, n_clients=6, per_client=3,
            make_spec=lambda cid, j: specs[j],
        )
        assert errors == []
        for _cid, j, sha, rec in results:
            payload = json.loads(rec["payload"])
            assert payload["job_sha"] == sha
            assert payload["job"]["nsteps"] == j + 1


class TestMixedStorm:
    def test_failures_and_crashes_do_not_poison_clean_jobs(self, server):
        """One third clean, one third program-error, one third worker
        crash-once: clean results stay byte-identical, failures stay
        typed, nothing wedges."""
        expected = {
            spec.sha(): run_job_bytes(spec)
            for spec in (tiny_spec(), fault_spec(CRASH_ONCE))
        }

        def make_spec(cid, j):
            kind = (cid + j) % 3
            if kind == 0:
                return tiny_spec()
            if kind == 1:
                return fault_spec(ERROR + 10 * cid + j)
            return fault_spec(CRASH_ONCE)

        results, errors = _storm(
            server.socket_path, n_clients=6, per_client=3, make_spec=make_spec
        )
        assert len(results) + len(errors) == 18
        for _cid, _j, sha, rec in results:
            assert rec["payload"].encode() == expected[sha]
        for cid, j, _sha, exc in errors:
            assert isinstance(exc, JobFailedError)
            assert exc.kind == "RuntimeError"
            assert exc.message == f"injected {10 * cid + j}"
        # Every injected error surfaced as an error, every crash was
        # retried into a success.
        assert len(errors) == 6
