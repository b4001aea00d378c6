"""Result cache: hit/miss/eviction semantics, spill tier, thread safety."""

import threading

import pytest

from repro.serve import ResultCache


class TestMemoryTier:
    def test_miss_then_hit(self):
        c = ResultCache()
        assert c.get("aa") is None
        c.put("aa", b"payload")
        assert c.get("aa") == b"payload"
        assert c.stats() == {
            "entries": 1, "max_entries": 256, "hits": 1, "misses": 1,
            "evictions": 0, "persistent": False,
        }

    def test_put_requires_bytes(self):
        with pytest.raises(TypeError, match="bytes"):
            ResultCache().put("aa", "text")

    def test_lru_eviction_order(self, monkeypatch):
        monkeypatch.setattr("repro.serve.cache.MAX_ENTRIES", 2)
        c = ResultCache()
        c.put("a", b"1")
        c.put("b", b"2")
        assert c.get("a") == b"1"  # refreshes 'a'
        c.put("c", b"3")  # evicts 'b', the least recent
        assert "b" not in c
        assert c.get("a") == b"1"
        assert c.get("c") == b"3"
        assert c.stats()["evictions"] == 1

    def test_put_refreshes_recency(self, monkeypatch):
        monkeypatch.setattr("repro.serve.cache.MAX_ENTRIES", 2)
        c = ResultCache()
        c.put("a", b"1")
        c.put("b", b"2")
        c.put("a", b"1*")  # re-put refreshes, and overwrites
        c.put("c", b"3")
        assert "b" not in c
        assert c.get("a") == b"1*"

    def test_contains_and_len(self):
        c = ResultCache()
        assert "x" not in c and len(c) == 0
        c.put("x", b"1")
        assert "x" in c and len(c) == 1


class TestSpillTier:
    def test_round_trip_through_directory(self, tmp_path):
        c = ResultCache(directory=tmp_path)
        c.put("deadbeef", b"spilled")
        assert (tmp_path / "deadbeef.json").read_bytes() == b"spilled"

    def test_restart_adopts_spilled_entries(self, tmp_path):
        ResultCache(directory=tmp_path).put("k1", b"v1")
        fresh = ResultCache(directory=tmp_path)
        assert len(fresh) == 0  # memory tier empty ...
        assert fresh.get("k1") == b"v1"  # ... but the disk tier answers
        assert fresh.stats()["hits"] == 1
        assert len(fresh) == 1  # now adopted into memory

    def test_eviction_removes_spilled_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.cache.MAX_ENTRIES", 1)
        c = ResultCache(directory=tmp_path)
        c.put("a", b"1")
        c.put("b", b"2")
        assert not (tmp_path / "a.json").exists()
        assert (tmp_path / "b.json").exists()
        assert c.get("a") is None  # gone from both tiers

    def test_contains_checks_disk(self, tmp_path):
        ResultCache(directory=tmp_path).put("k", b"v")
        assert "k" in ResultCache(directory=tmp_path)


class TestThreadSafety:
    def test_concurrent_put_get_consistent(self, monkeypatch):
        monkeypatch.setattr("repro.serve.cache.MAX_ENTRIES", 64)
        c = ResultCache()
        errors = []

        def worker(tid):
            try:
                for i in range(200):
                    sha = f"{tid}-{i % 20}"
                    c.put(sha, sha.encode())
                    got = c.get(sha)
                    # May have been evicted, but never corrupted.
                    if got is not None and got != sha.encode():
                        errors.append((sha, got))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(c) <= 64
