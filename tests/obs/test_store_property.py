"""Property tests: the trace store is a faithful, crash-tolerant log.

Hypothesis drives arbitrary interleavings of the five event kinds plus
multi-epoch ``advance`` through a :class:`SpanTracer` and a
:class:`StoreTracer` side by side, then asserts the store reads back the
*exact* in-memory view — and that a crash (an index older than the
event file, the file truncated mid-frame past the bytes that index
counts, the index torn) reads back as an exact prefix of the recording.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.obs import SpanTracer  # noqa: E402
from repro.obs.store import (  # noqa: E402
    EVENTS_NAME,
    INDEX_NAME,
    StoreTracer,
    load_store,
)

from tests.obs.conftest import flush_bytes

PHASES = ("overflow", "motion", "dcf3d", "solver")
KINDS = ("compute", "comm", "wait")

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
ranks = st.integers(min_value=0, max_value=3)
small_int = st.integers(min_value=0, max_value=2**20)
# Mark args stick to scalars here; tuples, lists and dicts round-trip
# exactly too (``test_store.py::TestCodec``).
arg_value = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(2**40), max_value=2**40),
    finite, st.text(max_size=8),
)

op_ev = st.tuples(
    st.just("op"), ranks, st.sampled_from(PHASES), st.sampled_from(KINDS),
    finite, finite, finite, small_int,
)
phase_ev = st.tuples(st.just("phase"), ranks, finite, st.sampled_from(PHASES))
arg_key = st.text(min_size=1, max_size=4).filter(
    lambda k: k not in ("self", "t", "name")  # mark()'s positional params
)
mark_ev = st.tuples(
    st.just("mark"), finite, st.text(min_size=1, max_size=8),
    st.dictionaries(arg_key, arg_value, max_size=3),
)
send_ev = st.tuples(
    st.just("send"), finite, ranks, ranks, small_int, small_int,
    st.sampled_from(PHASES),
)
recv_ev = st.tuples(
    st.just("recv"), finite, ranks, ranks, small_int, small_int,
    st.sampled_from(PHASES),
)
advance_ev = st.tuples(st.just("advance"), finite)

events = st.lists(
    st.one_of(op_ev, phase_ev, mark_ev, send_ev, recv_ev, advance_ev),
    max_size=120,
)

# Epoch bodies without interior advances, so the expected cumulative
# offset is just the sum of the per-epoch dt values.
events_no_advance = st.lists(
    st.one_of(op_ev, phase_ev, mark_ev, send_ev, recv_ev), max_size=60
)


def apply(tracer, event):
    kind, *rest = event
    if kind == "op":
        rank, phase, op_kind, t0, dur, flops, nbytes = rest
        tracer.op(rank, phase, op_kind, t0, t0 + dur, flops, nbytes)
    elif kind == "phase":
        tracer.phase(*rest)
    elif kind == "mark":
        t, name, args = rest
        tracer.mark(t, name, **args)
    elif kind == "send":
        tracer.send(*rest)
    elif kind == "recv":
        tracer.recv(*rest)
    else:
        tracer.advance(rest[0])


def drive(tracer, sequence):
    for event in sequence:
        apply(tracer, event)
    return tracer


@settings(max_examples=40, deadline=None)
@given(sequence=events)
def test_store_reads_back_exact_tracer_view(tmp_path_factory, sequence):
    tmp = tmp_path_factory.mktemp("prop-store")
    span = drive(SpanTracer(), sequence)
    with flush_bytes(96):
        store = drive(StoreTracer(tmp), sequence)
    store.close()
    got = load_store(tmp)
    assert got.ops == span.ops
    assert got.phase_marks == span.phase_marks
    assert got.marks == span.marks
    assert got.sends == span.sends
    assert got.recvs == span.recvs
    assert got.offset == span.offset
    assert got.nranks == span.nranks
    assert got.clock == span.clock


@settings(max_examples=25, deadline=None)
@given(
    sequence=events,
    chop=st.integers(min_value=1, max_value=64),
    tear_index=st.booleans(),
)
def test_crash_recovery_keeps_a_prefix_of_the_recording(
    tmp_path_factory, sequence, chop, tear_index
):
    tmp = tmp_path_factory.mktemp("prop-crash")
    span = drive(SpanTracer(), sequence)
    half = len(sequence) // 2
    with flush_bytes(64):
        store = drive(StoreTracer(tmp), sequence[:half])
    store.flush()
    index = (tmp / INDEX_NAME).read_text()
    drive(store, sequence[half:])
    # Crash: the rest of the recording reached the event file but the
    # index did not, and the file's last write was torn mid-frame past
    # the bytes that index counts; optionally the index is torn too.
    store.flush()
    (tmp / INDEX_NAME).write_text(index)
    counted = json.loads(index)
    events = tmp / EVENTS_NAME
    if events.exists():
        blob = events.read_bytes()
        events.write_bytes(blob[: max(counted["bytes"], len(blob) - chop)])
    if tear_index:
        (tmp / INDEX_NAME).write_text("{ not json")
        counted = {"records": 0}
    if not events.exists() and tear_index:
        # Nothing durable survived this crash at all; the reader says so.
        with pytest.raises(FileNotFoundError):
            load_store(tmp)
        return
    got = load_store(tmp)

    # The recovered stream is an exact prefix of the recording: a crash
    # loses a suffix of it, never a record from the middle.
    assert got.events == span.events[: len(got.events)]
    assert len(got.events) >= counted["records"]


@settings(max_examples=20, deadline=None)
@given(
    epochs=st.lists(
        st.tuples(events_no_advance,
                  st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False)),
        min_size=1, max_size=4,
    )
)
def test_multi_epoch_advance_offsets_match(tmp_path_factory, epochs):
    """advance() between epochs shifts both tracers identically, and the
    store's index records every epoch boundary."""
    tmp = tmp_path_factory.mktemp("prop-epoch")
    span = SpanTracer()
    with flush_bytes(128):
        store = StoreTracer(tmp)
    for sequence, dt in epochs:
        drive(span, sequence)
        drive(store, sequence)
        span.advance(dt)
        store.advance(dt)
    store.close()
    got = load_store(tmp)
    assert got.ops == span.ops
    assert got.sends == span.sends
    assert got.offset == span.offset == pytest.approx(
        sum(dt for _, dt in epochs)
    )

