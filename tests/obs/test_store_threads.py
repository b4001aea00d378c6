"""StoreTracer under concurrent recorders (serve's dispatcher threads).

Events are queued under the store lock and drained in batches, so a
lost update would show as a missing or duplicated sequence number, a
per-thread order change, or a ``records`` count that disagrees with
what reads back.
"""

import sys
import threading

import pytest

from repro.obs.store import StoreReader, StoreTracer, load_store

THREADS = 8
OPS = 700  # per thread: each thread alone crosses the drain bound


@pytest.mark.parametrize("flush_every", [0, 17])
def test_concurrent_recorders_lose_nothing(tmp_path, flush_every):
    store = StoreTracer(tmp_path, flush_every=flush_every)

    def work(rank):
        for i in range(OPS):
            if i % 100 == 0:
                store.phase(rank, float(i), "overflow")
            store.op(rank, "overflow", "compute", float(i), i + 0.5, 0.0, 8)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(r,))
                   for r in range(THREADS)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    store.close()

    per_thread = OPS + OPS // 100
    assert store.records == THREADS * per_thread
    seqs = [seq for seq, _, _ in StoreReader(tmp_path).iter_records()]
    assert seqs == list(range(THREADS * per_thread))
    got = load_store(tmp_path)
    for rank in range(THREADS):
        times = [e[3] for e in got.ops if e[0] == rank]
        assert times == [float(i) for i in range(OPS)]
    assert got.nranks == THREADS
