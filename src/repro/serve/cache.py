"""Content-addressed result cache keyed by ``config_sha``.

Stores the *literal canonical payload bytes* a job produced, keyed by
the job's sha — so a cache hit is byte-identical to the run that filled
the entry, by construction.  Only deterministic payloads belong here
(the server refuses to cache measured ``mp`` results); the cache itself
is policy-free and stores whatever it is given.

Two tiers:

* an in-memory LRU (:data:`MAX_ENTRIES`; eviction is strict
  least-recently-used, where both ``get`` hits and ``put`` refresh
  recency), and
* an optional spill directory (``<sha>.json``, atomic rename writes) so
  a restarted daemon answers yesterday's jobs for free.  Directory
  entries evict together with their memory entry, keeping the two tiers
  consistent; pre-existing files are adopted lazily on first ``get``.

All operations are thread-safe (one lock; every operation is O(1) plus
I/O) — the server's dispatcher threads and connection handlers share
one instance.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path

__all__ = ["ResultCache"]

#: Capacity of the in-memory LRU (and hence of the spill directory).
MAX_ENTRIES = 256


class ResultCache:
    """LRU byte store: ``sha -> canonical payload bytes``."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.max_entries = MAX_ENTRIES
        self.directory = Path(directory) if directory else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._mem: OrderedDict[str, bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    def _path_for(self, sha: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{sha}.json"

    def get(self, sha: str) -> bytes | None:
        """The cached payload for ``sha``, or ``None`` (counted).

        The spill-directory read happens *outside* the lock (it is
        blocking disk I/O; holding the lock across it would stall every
        dispatcher thread behind one slow disk).  Exactly one of
        ``hits``/``misses`` is incremented per call regardless.
        """
        with self._lock:
            payload = self._mem.get(sha)
            if payload is not None:
                self._mem.move_to_end(sha)
                self.hits += 1
                return payload
            if self.directory is None:
                self.misses += 1
                return None
            path = self._path_for(sha)
        try:
            payload = path.read_bytes()
        except OSError:
            payload = None
        with self._lock:
            raced = self._mem.get(sha)
            if raced is not None:
                # another thread inserted while we were reading; its
                # copy is authoritative (byte-identical by construction)
                self._mem.move_to_end(sha)
                self.hits += 1
                return raced
            if payload:
                self._insert(sha, payload)
                self.hits += 1
                return payload
            self.misses += 1
            return None

    def put(self, sha: str, payload: bytes) -> None:
        """Store ``payload`` under ``sha`` (refreshes recency).

        The spill write is staged to a uniquely-named temp file outside
        the lock; only the atomic rename and the LRU insert run under
        it, so ``put`` never holds the lock across disk I/O.
        """
        if not isinstance(payload, bytes):
            raise TypeError(
                f"cache stores bytes, got {type(payload).__name__}"
            )
        staged: tuple[Path, Path] | None = None
        if self.directory is not None:
            with self._lock:
                need_disk = sha not in self._mem
            if need_disk:
                path = self._path_for(sha)
                tmp = path.with_name(
                    f"{path.name}.{os.getpid()}."
                    f"{threading.get_ident()}.tmp"
                )
                tmp.write_bytes(payload)
                staged = (tmp, path)
        with self._lock:
            if staged is not None:
                os.replace(staged[0], staged[1])
            self._insert(sha, payload)

    def _insert(self, sha: str, payload: bytes) -> None:
        """Lock held: insert/refresh and evict beyond capacity."""
        self._mem[sha] = payload
        self._mem.move_to_end(sha)
        while len(self._mem) > self.max_entries:
            victim, _ = self._mem.popitem(last=False)
            self.evictions += 1
            if self.directory is not None:
                try:
                    self._path_for(victim).unlink()
                except OSError:
                    pass

    def __contains__(self, sha: str) -> bool:
        with self._lock:
            if sha in self._mem:
                return True
        if self.directory is not None:
            return self._path_for(sha).is_file()
        return False

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._mem),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "persistent": self.directory is not None,
            }
