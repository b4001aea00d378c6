"""StoreTracer under concurrent recorders (serve's dispatcher threads).

Events are queued under the store lock and drained in batches, so a
lost update would show as a missing or duplicated record, a per-thread
order change, or a ``records`` count that disagrees with what reads
back.
"""

import sys
import threading

import pytest

from repro.obs.store import KIND_OP, KIND_PHASE, StoreReader, StoreTracer

THREADS = 8
OPS = 700  # per thread: each thread alone crosses the drain bound


@pytest.mark.parametrize("flush_every", [0, 17])
def test_concurrent_recorders_lose_nothing(tmp_path, flush_every):
    store = StoreTracer(tmp_path, flush_every=flush_every)

    def script(rank):
        for i in range(OPS):
            if i % 100 == 0:
                yield KIND_PHASE, (rank, float(i), "overflow")
            yield KIND_OP, (rank, "overflow", "compute", float(i), i + 0.5,
                            0.0, 8)

    def work(rank):
        for kind, fields in script(rank):
            if kind == KIND_PHASE:
                store.phase(*fields)
            else:
                store.op(*fields)

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

    records = list(StoreReader(tmp_path).iter_records())
    assert store.records == len(records) == THREADS * (OPS + OPS // 100)
    for rank in range(THREADS):
        mine = [rec for rec in records if rec[1][0] == rank]
        assert mine == list(script(rank))
    assert store.nranks == THREADS
