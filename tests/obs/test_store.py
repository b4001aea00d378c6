"""Streaming trace store: codec, event file, writer, reader, recovery.

The contract under test: anything recorded through
:class:`repro.obs.store.StoreTracer` reads back as the **exact**
in-memory :class:`SpanTracer` view — same tuples, same order, same
exported bytes — while the writer's memory stays bounded by one flush
buffer, and a crash mid-write costs at most the unflushed tail of the
recording.
"""

import json
import tempfile
import threading

import pytest

from repro.cases import airfoil_case, x38_case
from repro.core import OverflowD1
from repro.machine import sp2
from repro.obs import SpanTracer, ascii_timeline, chrome_trace
from repro.obs.store import (
    EVENTS_NAME,
    INDEX_NAME,
    KIND_MARK,
    KIND_OP,
    STORE_FORMAT,
    StoreCodecError,
    StoreCorruptionError,
    StoreReader,
    StoreTracer,
    TailReader,
    load_index,
    load_store,
)
from repro.obs.store.codec import decode_record, encode_record, read_frame

from tests.obs.conftest import flush_bytes


def roundtrip(value):
    """``value`` recorded as a mark arg, read back through StoreReader;
    TailReader must read back the same value of the same type."""
    with tempfile.TemporaryDirectory() as tmp:
        with StoreTracer(tmp) as store:
            store.mark(0.0, "m", v=value)
        got = load_store(tmp).marks[0][2]["v"]
        [(_kind, (_t, _name, args))] = TailReader(tmp).poll()
    assert args["v"] == got and type(args["v"]) is type(got)
    return got


class TestCodec:
    def test_scalar_roundtrip_preserves_exact_types(self):
        for value in (None, True, False, 0, 1, -1, 2**70, -(2**70),
                      0.0, -0.0, 1.5, 1e300, "", "phase", "päöx", b"",
                      b"\x00\xff"):
            got = roundtrip(value)
            assert got == value
            assert type(got) is type(value)

    def test_int_float_distinction_survives(self):
        # json.dumps(100) != json.dumps(100.0): exporters depend on it.
        assert type(roundtrip(100)) is int
        assert type(roundtrip(100.0)) is float

    def test_float_bit_exact(self):
        import math
        for value in (math.pi, 1e-308, float("inf"), float("-inf")):
            assert roundtrip(value) == value
        assert math.copysign(1.0, roundtrip(-0.0)) == -1.0

    def test_containers(self):
        value = {"a": [1, 2.5, "x"], "b": {"c": None, "d": [True]}}
        assert roundtrip(value) == value

    def test_tuple_mark_args_read_back_equal_to_span_tracer(self, tmp_path):
        span, store = SpanTracer(), StoreTracer(tmp_path)
        for tracer in (span, store):
            tracer.mark(1.0, "m", pair=(1, 2.5), rows=[(0, "a"), {"k": ()}])
        store.close()
        got = load_store(tmp_path).marks
        assert got == span.marks
        assert type(got[0][2]["pair"]) is tuple
        assert type(got[0][2]["rows"][0]) is tuple

    def test_unstorable_type_rejected(self):
        with pytest.raises(StoreCodecError):
            roundtrip(object())
        with pytest.raises(StoreCodecError):
            roundtrip([{"nested": {1, 2}}])

    def test_numpy_scalars_reduce_to_python(self, tmp_path):
        import numpy as np
        span, store = SpanTracer(), StoreTracer(tmp_path)
        for tracer in (span, store):
            tracer.op(1, "p", "compute", np.float64(0.5),
                      np.float64(1.5), np.float64(2.0), np.int64(64))
            tracer.mark(np.float64(2.0), "m", n=np.int64(7),
                        pair=(np.int64(1), np.float64(7.5)))
        store.close()
        got = load_store(tmp_path)
        assert got.ops == span.ops and got.marks == span.marks
        tailed = dict(TailReader(tmp_path).poll())
        for op, (t, _name, args) in ((got.ops[0], got.marks[0]),
                                     (tailed[KIND_OP], tailed[KIND_MARK])):
            assert [type(v) for v in op] == [int, str, str, float, float,
                                             float, int]
            assert type(t) is float and type(args["n"]) is int
            assert [type(v) for v in args["pair"]] == [int, float]

    def test_record_roundtrip(self):
        rec = encode_record(KIND_OP, (3, "overflow", "compute",
                                      0.5, 1.5, 100.0, 2048))
        payload, off = read_frame(rec, 0)
        assert off == len(rec)
        kind, fields = decode_record(payload)
        assert kind == KIND_OP
        assert fields == (3, "overflow", "compute", 0.5, 1.5, 100.0, 2048)

    def test_record_field_count_enforced(self):
        with pytest.raises(StoreCodecError):
            encode_record(KIND_OP, (1, 2))
        with pytest.raises(StoreCodecError):
            encode_record(99, ())

    def test_bad_payloads_raise_codec_error_only(self):
        import marshal
        for payload in (
            b"",                                      # EOFError
            marshal.dumps((KIND_OP, (0,) * 7), 4)[:-1],  # EOFError
            b"\x01\x00\x03\x00",                      # ValueError
            b"<\x01\x00\x00\x00[\x00\x00\x00\x00",      # TypeError
            marshal.dumps([KIND_OP, (0,) * 7], 4),     # not a tuple
            marshal.dumps((KIND_OP, (0,) * 6), 4),     # field count
            marshal.dumps((99, ()), 4),                # unknown kind
            marshal.dumps((KIND_OP, [0] * 7), 4),      # fields type
            marshal.dumps((KIND_OP, 0, (0,) * 7), 4),  # format-2 record
        ):
            with pytest.raises(StoreCodecError) as info:
                decode_record(payload)
            assert type(info.value) is StoreCodecError, payload

    def test_truncated_and_corrupt_frames_return_none(self):
        rec = encode_record(KIND_OP, (0, "p", "compute", 0.0, 1.0, 0.0, 0))
        # Short header, short payload, CRC flip: all (None, off).
        for cut in (1, 7, len(rec) - 1):
            assert read_frame(rec[:cut], 0) == (None, 0)
        bad = bytearray(rec)
        bad[-1] ^= 0xFF
        assert read_frame(bytes(bad), 0) == (None, 0)


#: Two CRC-framed records as the ``repro-trace-store/1`` codec wrote them
#: (LEB128 varints and tagged values): an op on rank 0 and a driver mark.
FORMAT_1_SEGMENTS = {
    "shard-0-00000.seg": bytes.fromhex(
        "2d0000005ecb7d2f010003000601700607636f6d707574650500000000000000"
        "0005000000000000f03f0500000000000000000308"
    ),
    "shard-driver-00000.seg": bytes.fromhex(
        "1c000000a4d84b6a0301050000000000000040060565706f6368090106047374"
        "65700300"
    ),
}

#: A whole ``repro-trace-store/2`` store, hex per file: one shard per
#: rank plus a driver shard (an op on rank 0 and a mark), and its index.
FORMAT_2_STORE = {
    "shard-0-00000.seg": (
        "3f0000007a34b8022903e901000000e900000000a9077201000000da0170da07"
        "636f6d7075746567000000000000000067000000000000f03fe7000000000000"
        "00007201000000"
    ),
    "shard-driver-00000.seg": (
        "2b000000e12a82662903e903000000e901000000a903e70000000000000040da"
        "0565706f63687bda0473746570e90000000030"
    ),
    "index.json": (
        "7b0a2022616476616e636573223a205b5d2c0a2022636c6f636b223a20227669"
        "727475616c222c0a2022636f6d706c657465223a20747275652c0a2022666f72"
        "6d6174223a2022726570726f2d74726163652d73746f72652f32222c0a20226d"
        "657461223a207b7d2c0a20226e72616e6b73223a20312c0a20226f6666736574"
        "223a20302e302c0a20227265636f726473223a20322c0a202273686172647322"
        "3a207b0a20202230223a207b0a2020202266697273745f736571223a20302c0a"
        "202020226c6173745f736571223a20302c0a202020227265636f726473223a20"
        "312c0a202020227365676d656e7473223a205b0a202020207b0a202020202022"
        "6279746573223a2037312c0a202020202022696e646578223a20300a20202020"
        "7d0a2020205d0a20207d2c0a202022647269766572223a207b0a202020226669"
        "7273745f736571223a20312c0a202020226c6173745f736571223a20312c0a20"
        "2020227265636f726473223a20312c0a202020227365676d656e7473223a205b"
        "0a202020207b0a2020202020226279746573223a2035312c0a20202020202269"
        "6e646578223a20300a202020207d0a2020205d0a20207d0a207d2c0a20227374"
        "65705f7068617365223a20226f766572666c6f77222c0a20227374657073223a"
        "205b5d0a7d0a"
    ),
}


class TestOldStores:
    @pytest.mark.parametrize("old", ["1", "3"])
    def test_format_1_index_refused_naming_both_formats(self, tmp_path, old):
        StoreTracer(tmp_path).close()
        payload = json.loads((tmp_path / INDEX_NAME).read_text())
        payload["format"] = f"repro-trace-store/{old}"
        (tmp_path / INDEX_NAME).write_text(json.dumps(payload))
        with pytest.raises(StoreCorruptionError) as info:
            load_index(tmp_path)
        assert f"repro-trace-store/{old}" in str(info.value)
        assert STORE_FORMAT in str(info.value)
        with pytest.raises(StoreCorruptionError):
            StoreReader(tmp_path)

    def test_format_1_segments_raise_typed_errors(self, tmp_path):
        for name, blob in FORMAT_1_SEGMENTS.items():
            (tmp_path / name).write_bytes(blob)
        for read in (lambda: StoreReader(tmp_path).to_tracer(),
                     lambda: TailReader(tmp_path).poll()):
            with pytest.raises(StoreCorruptionError, match="shard-"):
                read()

    def test_format_2_store_refused(self, tmp_path):
        for name, blob in FORMAT_2_STORE.items():
            (tmp_path / name).write_bytes(bytes.fromhex(blob))
        with pytest.raises(StoreCorruptionError, match="repro-trace-store/2"):
            StoreReader(tmp_path)
        with pytest.raises(StoreCorruptionError, match="shard-"):
            TailReader(tmp_path).poll()
        (tmp_path / INDEX_NAME).unlink()
        with pytest.raises(StoreCorruptionError, match="shard-"):
            StoreReader(tmp_path)

    def test_format_4_segments_refused_by_name(self, tmp_path):
        # A repro-trace-store/4 store was a series segment-NNNNN.seg.
        frame = encode_record(KIND_OP, (0, "p", "compute", 0.0, 1.0, 0.0, 0))
        (tmp_path / "segment-00000.seg").write_bytes(frame)
        for read in (lambda: StoreReader(tmp_path).to_tracer(),
                     lambda: TailReader(tmp_path).poll()):
            with pytest.raises(StoreCorruptionError,
                               match="segment-00000.seg"):
                read()

    def test_cli_top_on_format_2_store_is_one_line(self, tmp_path):
        from repro.cli import main

        for name, blob in FORMAT_2_STORE.items():
            (tmp_path / name).write_bytes(bytes.fromhex(blob))
        with pytest.raises(SystemExit) as info:
            main(["top", str(tmp_path), "--once"])
        message = info.value.code
        assert isinstance(message, str)  # printed to stderr, exit status 1
        assert message.strip() and "\n" not in message


def op(i):
    return (0, "p", "compute", float(i), float(i + 1), 0.0, 0)


def sealed_store(directory, n=5):
    """A closed store of ``n`` ops; returns (event file, index bytes)."""
    with StoreTracer(directory) as store:
        for i in range(n):
            store.op(*op(i))
    index = load_index(directory)
    path = directory / EVENTS_NAME
    assert index["bytes"] == path.stat().st_size > 0
    return path, index["bytes"]


def read_both(directory):
    """The records StoreReader and a first TailReader poll see."""
    return list(StoreReader(directory).iter_records()), TailReader(
        directory
    ).poll()


class TestEventFile:
    def test_one_event_file_and_index(self, tmp_path):
        sealed_store(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            EVENTS_NAME, INDEX_NAME
        ]

    def test_flipped_byte_inside_sealed_prefix_raises(self, tmp_path):
        path, sealed = sealed_store(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[sealed // 2] ^= 0xFF  # outside interference, not a crash
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptionError, match="index counts"):
            list(StoreReader(tmp_path).iter_records())
        with pytest.raises(StoreCorruptionError, match="index counts"):
            TailReader(tmp_path).poll()

    def test_file_shorter_than_sealed_prefix_raises(self, tmp_path):
        path, sealed = sealed_store(tmp_path)
        whole = path.read_bytes()
        last = len(encode_record(KIND_OP, op(4)))
        path.write_bytes(whole[: sealed - last])  # on a frame boundary
        for read in (lambda: list(StoreReader(tmp_path).iter_records()),
                     lambda: TailReader(tmp_path).poll()):
            with pytest.raises(StoreCorruptionError):
                read()

    def test_truncated_tail_past_sealed_prefix_dropped(self, tmp_path):
        path, _sealed = sealed_store(tmp_path)
        # A writer that crashed after the last index: one whole frame
        # and a torn one past the bytes the index counts.
        torn = encode_record(KIND_OP, op(6))
        with open(path, "ab") as f:
            f.write(encode_record(KIND_OP, op(5)) + torn[:-3])
        want = [(KIND_OP, op(i)) for i in range(6)]
        assert read_both(tmp_path) == (want, want)

    def test_fresh_removes_leftover_index_snapshots(self, tmp_path):
        sealed_store(tmp_path)
        (tmp_path / f"{INDEX_NAME}.7.tmp").write_text("{ torn")
        (tmp_path / EVENTS_NAME).unlink()
        (tmp_path / INDEX_NAME).unlink()
        with pytest.raises(FileExistsError):
            StoreTracer(tmp_path)
        StoreTracer(tmp_path, fresh=True).close()
        assert sorted(p.name for p in tmp_path.iterdir()) == [INDEX_NAME]


def record_script(tracer, nranks=3, steps=4):
    """Drive one tracer through a deterministic mixed-event script."""
    t = 0.0
    for step in range(steps):
        for phase in ("overflow", "motion", "dcf3d"):
            for r in range(nranks):
                tracer.phase(r, t, phase)
                tracer.op(r, phase, "compute", t, t + 0.5 + r * 0.1,
                          100.0, 64)
                tracer.send(t, r, (r + 1) % nranks, 7, 1024, phase)
                tracer.recv(t + 0.1, (r + 1) % nranks, r, 7, 1024, phase)
                tracer.op(r, phase, "wait", t + 0.6, t + 0.7, 0.0, 1024)
            t += 1.0
        tracer.mark(t, "epoch", step=step)
    tracer.advance(t)
    tracer.op(0, "restore", "compute", 0.0, 1.0, 0.0, 5)


class TestStoreTracerRoundTrip:
    def test_exact_spantracer_equality(self, tmp_path):
        with flush_bytes(64):
            span, store = SpanTracer(), StoreTracer(tmp_path)
        record_script(span)
        record_script(store)
        store.close()
        got = load_store(tmp_path)
        assert got.ops == span.ops
        assert got.phase_marks == span.phase_marks
        assert got.marks == span.marks
        assert got.sends == span.sends
        assert got.recvs == span.recvs
        assert got.offset == span.offset
        assert got.nranks == span.nranks

    def test_reader_works_without_index(self, tmp_path):
        span, store = SpanTracer(), StoreTracer(tmp_path)
        record_script(span)
        record_script(store)
        store.close()
        (tmp_path / INDEX_NAME).unlink()
        got = load_store(tmp_path)
        assert got.ops == span.ops
        assert got.sends == span.sends

    def test_crash_loses_only_unflushed_tail(self, tmp_path):
        with flush_bytes(64):
            span, store = SpanTracer(), StoreTracer(tmp_path)
        record_script(span)
        record_script(store)
        store.flush()
        # Crash: never close(); additionally truncate the event file
        # mid-frame and tear the index.
        last = tmp_path / EVENTS_NAME
        blob = last.read_bytes()
        last.write_bytes(blob[:-2])
        (tmp_path / INDEX_NAME).write_text("{ torn")
        got = load_store(tmp_path)
        # Everything recovered is a prefix of the recording.
        assert 0 < len(got.events) < len(span.events)
        assert got.events == span.events[: len(got.events)]

    def test_refuses_reuse_without_fresh(self, tmp_path):
        StoreTracer(tmp_path).close()
        with pytest.raises(FileExistsError):
            StoreTracer(tmp_path)
        StoreTracer(tmp_path, fresh=True).close()

    def test_index_format_mismatch_raises(self, tmp_path):
        StoreTracer(tmp_path).close()
        payload = json.loads((tmp_path / INDEX_NAME).read_text())
        payload["format"] = "repro-trace-store/999"
        (tmp_path / INDEX_NAME).write_text(json.dumps(payload))
        with pytest.raises(StoreCorruptionError):
            load_index(tmp_path)

    def test_thread_safety_under_concurrent_ops(self, tmp_path):
        # serve's dispatcher threads record concurrently.
        store = StoreTracer(tmp_path, flush_every=17)
        def work(worker):
            for i in range(200):
                store.op(worker, f"job:{i}", "compute", float(i),
                         float(i) + 0.5, 0.0, 100)
        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        store.close()
        got = load_store(tmp_path)
        assert len(got.ops) == store.records == 800
        for worker in range(4):
            assert [e[3] for e in got.ops if e[0] == worker] == [
                float(i) for i in range(200)
            ]


class TestBoundedMemory:
    def test_long_run_bounds_buffer_and_open_segments(self, tmp_path):
        with flush_bytes(512):
            store = StoreTracer(tmp_path)
        cfg = airfoil_case(machine=sp2(nodes=4), scale=0.1, nsteps=5)
        OverflowD1(cfg, tracer=store).run()
        store.close()
        # The flush buffer never grew past threshold + one record,
        # over a trace many thresholds long, all in one segment file:
        # the event file.
        assert 0 < store.max_buffered_bytes < 512 + 512
        assert [p.name for p in tmp_path.glob("*.seg")] == [EVENTS_NAME]
        assert (tmp_path / EVENTS_NAME).stat().st_size > 8 * 512
        # And the data is still exact: spot-check via a fresh run.
        span = SpanTracer()
        cfg = airfoil_case(machine=sp2(nodes=4), scale=0.1, nsteps=5)
        OverflowD1(cfg, tracer=span).run()
        assert load_store(tmp_path).ops == span.ops


@pytest.mark.parametrize("case_builder,name", [
    (airfoil_case, "airfoil"),
    (x38_case, "x38"),
])
class TestBitIdentity:
    """Store-reconstructed exporter output == in-memory, byte for byte."""

    def _pair(self, case_builder, tmp_path):
        def run(tracer):
            cfg = case_builder(machine=sp2(nodes=4), scale=0.1, nsteps=3)
            OverflowD1(cfg, tracer=tracer).run()
        span = SpanTracer()
        run(span)
        store = StoreTracer(tmp_path)
        run(store)
        store.close()
        return span, load_store(tmp_path)

    def test_chrome_trace_and_timeline_bytes(self, case_builder, name,
                                             tmp_path):
        span, stored = self._pair(case_builder, tmp_path)
        assert chrome_trace(stored) == chrome_trace(span)
        assert ascii_timeline(stored) == ascii_timeline(span)

    def test_critical_path_and_comm_matrix(self, case_builder, name,
                                           tmp_path):
        from repro.obs.perf.comm_matrix import CommMatrix
        from repro.obs.perf.critical_path import analyze_critical_path

        span, stored = self._pair(case_builder, tmp_path)
        assert (analyze_critical_path(stored).to_dict()
                == analyze_critical_path(span).to_dict())
        a = CommMatrix.from_tracer(stored, nranks=stored.nranks)
        b = CommMatrix.from_tracer(span, nranks=span.nranks)
        assert a.to_dict(top_k=5) == b.to_dict(top_k=5)


class TestNranksAllStreams:
    """Regression: ranks visible only in sends/recvs count toward nranks."""

    def test_send_only_rank_counts(self):
        t = SpanTracer()
        t.op(0, "p", "compute", 0.0, 1.0)
        # Rank 5 was black-holed before its first op: it only appears
        # as a send destination and a recv source.
        t.send(0.5, 0, 5, 1, 64, "p")
        assert t.nranks == 6

    def test_recv_streams_count(self):
        t = SpanTracer()
        t.recv(0.5, 3, 7, 1, 64, "p")
        assert t.nranks == 8

    def test_empty_is_zero(self):
        assert SpanTracer().nranks == 0

    def test_store_tracer_matches(self, tmp_path):
        store = StoreTracer(tmp_path)
        store.op(0, "p", "compute", 0.0, 1.0)
        store.send(0.5, 0, 5, 1, 64, "p")
        assert store.nranks == 6
        store.close()
        assert load_store(tmp_path).nranks == 6


class TestIndex:
    def test_index_contents(self, tmp_path):
        store = StoreTracer(tmp_path)
        record_script(store, nranks=2, steps=3)
        store.close()
        index = load_index(tmp_path)
        assert index is not None
        assert index["format"] == STORE_FORMAT
        assert index["complete"] is True
        assert index["nranks"] == 2
        assert len(index["steps"]) == 3
        assert index["advances"]  # one advance in the script
        assert index["bytes"] == (tmp_path / EVENTS_NAME).stat().st_size
        step0 = index["steps"][0]
        assert set(step0["starts"]) == {"0", "1"}
        assert step0["start"][1] == min(step0["starts"].values())
        # rank -> phase -> [compute, comm, wait] seconds
        assert set(step0["cells"]) == {"0", "1"}
        compute, comm, wait = step0["cells"]["0"]["overflow"]
        assert compute > 0 and comm >= 0 and wait >= 0

    def test_step_start_offsets_point_at_step_phase_mark(self, tmp_path):
        from repro.obs.store.codec import KIND_PHASE

        with flush_bytes(64):
            store = StoreTracer(tmp_path)
        record_script(store, nranks=2, steps=3)
        store.close()
        index = load_index(tmp_path)
        blob = (tmp_path / EVENTS_NAME).read_bytes()
        full = list(StoreReader(tmp_path).iter_records())
        for entry in index["steps"]:
            off, ordinal = entry["start"]
            payload, _end = read_frame(blob, off)
            assert decode_record(payload) == full[ordinal]
            for rank, n in entry["starts"].items():
                kind, (r, _t, name) = full[n]
                assert (kind, r, name) == (KIND_PHASE, int(rank), "overflow")
