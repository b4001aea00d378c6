"""``TailReader.poll`` reads the log from its cursor, not from byte 0.

``repro top`` polls a live store every refresh; a poll that re-read the
whole current segment would cost up to one segment (4 MiB by default)
per tick instead of the bytes appended since the last one.  A bad frame
is in flight only in the newest segment: in a sealed one it is damage,
and ``top`` must say so instead of waiting for it for ever.
"""

import pytest

import repro.obs.store.reader as reader_mod
from repro.obs.store import StoreCorruptionError, StoreTracer, TailReader
from repro.obs.store.segment import segment_path
from repro.obs.store.top import run_top

from tests.obs.conftest import store_sizes
from tests.conftest import deadline


def record_ops(store, first, count):
    for i in range(first, first + count):
        store.op(0, "p", "compute", float(i), i + 0.5, 0.0, 8)
    store.flush()


def op_times(records):
    return [fields[3] for _kind, fields in records]


def test_second_poll_reads_only_appended_bytes(tmp_path, monkeypatch):
    store = StoreTracer(tmp_path)
    record_ops(store, 0, 50)
    tail = TailReader(tmp_path)
    assert op_times(tail.poll()) == [float(i) for i in range(50)]
    segment = segment_path(tmp_path, 0)
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

    assert op_times(got) == [float(i) for i in range(50, 55)]
    assert sum(read) == segment.stat().st_size - size_before > 0


def test_poll_retries_an_in_flight_frame(tmp_path):
    store = StoreTracer(tmp_path)
    record_ops(store, 0, 3)
    segment = segment_path(tmp_path, 0)
    whole = segment.read_bytes()
    segment.write_bytes(whole[:-2])  # last frame still being written
    tail = TailReader(tmp_path)
    assert op_times(tail.poll()) == [0.0, 1.0]
    segment.write_bytes(whole)
    assert op_times(tail.poll()) == [2.0]
    store.close()


def test_damaged_sealed_segment_raises_instead_of_waiting(tmp_path):
    with store_sizes(segment_bytes=256, flush_bytes=1):
        store = StoreTracer(tmp_path)
    record_ops(store, 0, 60)
    store.close()
    segments = sorted(tmp_path.glob("*.seg"))
    assert len(segments) > 3
    blob = bytearray(segments[0].read_bytes())
    blob[len(blob) // 2] ^= 0xFF  # outside interference, not a crash
    segments[0].write_bytes(bytes(blob))

    with deadline(10):
        with pytest.raises(StoreCorruptionError):
            TailReader(tmp_path).poll()
        with pytest.raises(StoreCorruptionError):
            run_top(tmp_path, interval=0.0, emit=lambda frame: None)
