"""``TailReader.poll`` reads each shard from its cursor, not from byte 0.

``repro top`` polls a live store every refresh; a poll that re-read
every shard's whole current segment would cost up to one segment
(4 MiB by default) per shard per tick instead of the bytes appended
since the last one.
"""

import repro.obs.store.reader as reader_mod
from repro.obs.store import StoreTracer, TailReader, shard_segments


def record_ops(store, first, count):
    for i in range(first, first + count):
        store.op(0, "p", "compute", float(i), i + 0.5, 0.0, 8)
    store.flush()


def test_second_poll_reads_only_appended_bytes(tmp_path, monkeypatch):
    store = StoreTracer(tmp_path)
    record_ops(store, 0, 50)
    tail = TailReader(tmp_path)
    assert [seq for seq, _, _ in tail.poll()] == list(range(50))
    segment = shard_segments(tmp_path)["0"][0]
    size_before = segment.stat().st_size

    read = []
    real = reader_mod.read_segment

    def counting(path, start=0):
        buf = real(path, start)
        read.append(len(buf))
        return buf

    monkeypatch.setattr(reader_mod, "read_segment", counting)
    record_ops(store, 50, 5)
    got = tail.poll()
    store.close()

    assert [seq for seq, _, _ in got] == list(range(50, 55))
    assert sum(read) == segment.stat().st_size - size_before > 0


def test_poll_retries_an_in_flight_frame(tmp_path):
    store = StoreTracer(tmp_path)
    record_ops(store, 0, 3)
    segment = shard_segments(tmp_path)["0"][0]
    whole = segment.read_bytes()
    segment.write_bytes(whole[:-2])  # last frame still being written
    tail = TailReader(tmp_path)
    assert [seq for seq, _, _ in tail.poll()] == [0, 1]
    segment.write_bytes(whole)
    assert [seq for seq, _, _ in tail.poll()] == [2]
    store.close()
