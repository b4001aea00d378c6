"""``TailReader.poll`` reads the event file from its cursor, not from
byte 0.

``repro top`` polls a live store every refresh; a poll that re-read the
whole event file would cost the whole trace per tick instead of the
bytes appended since the last one.  A bad frame is in flight only past
the sealed prefix the index counts: inside it, it is damage, and
``top`` must say so instead of waiting for it for ever.
"""

import pytest

import repro.obs.store.reader as reader_mod
from repro.obs.store import (
    EVENTS_NAME,
    INDEX_NAME,
    StoreCorruptionError,
    StoreTracer,
    TailReader,
)
from repro.obs.store.top import run_top

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
    events = tmp_path / EVENTS_NAME
    size_before = events.stat().st_size

    read = []
    real = reader_mod.read_events

    def counting(path, start=0):
        buf = real(path, start)
        read.append(len(buf))
        return buf

    monkeypatch.setattr(reader_mod, "read_events", counting)
    record_ops(store, 50, 5)
    got = tail.poll()
    store.close()

    assert op_times(got) == [float(i) for i in range(50, 55)]
    assert sum(read) == events.stat().st_size - size_before > 0


def test_poll_retries_an_in_flight_frame(tmp_path):
    store = StoreTracer(tmp_path)
    record_ops(store, 0, 2)
    index = (tmp_path / INDEX_NAME).read_text()
    record_ops(store, 2, 1)
    # The writer is mid-flush of the third frame: its index still
    # counts two, and the last frame is not all on disk yet.
    (tmp_path / INDEX_NAME).write_text(index)
    events = tmp_path / EVENTS_NAME
    whole = events.read_bytes()
    events.write_bytes(whole[:-2])
    tail = TailReader(tmp_path)
    assert op_times(tail.poll()) == [0.0, 1.0]
    events.write_bytes(whole)
    assert op_times(tail.poll()) == [2.0]
    store.close()


def test_damaged_sealed_segment_raises_instead_of_waiting(tmp_path):
    # The sealed prefix of the event file: the bytes its index counts.
    store = StoreTracer(tmp_path)
    record_ops(store, 0, 60)
    store.close()
    events = tmp_path / EVENTS_NAME
    blob = bytearray(events.read_bytes())
    blob[len(blob) // 2] ^= 0xFF  # outside interference, not a crash
    events.write_bytes(bytes(blob))

    with deadline(10):
        with pytest.raises(StoreCorruptionError):
            TailReader(tmp_path).poll()
        with pytest.raises(StoreCorruptionError):
            run_top(tmp_path, interval=0.0, emit=lambda frame: None)


def test_poll_reads_the_index_before_the_bytes(tmp_path, monkeypatch):
    store = StoreTracer(tmp_path)
    record_ops(store, 0, 3)
    real = reader_mod.read_events

    def then_writer_races_ahead(path, start=0):
        buf = real(path, start)
        record_ops(store, 3, 2)  # the index now counts bytes not read
        return buf

    monkeypatch.setattr(reader_mod, "read_events", then_writer_races_ahead)
    tail = TailReader(tmp_path)
    assert op_times(tail.poll()) == [0.0, 1.0, 2.0]
    monkeypatch.setattr(reader_mod, "read_events", real)
    assert op_times(tail.poll()) == [3.0, 4.0]
    store.close()
