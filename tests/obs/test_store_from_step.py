"""Partial replay: ``StoreReader.iter_records(from_step=N)``.

The index records, per step, ``start`` — the (segment, byte, record)
position of the first rank's step-phase record — and ``starts``, each
rank's record ordinal of its own step-phase record.  Partial replay
seeks to ``start`` and drops a record whose own rank enters the step
later than that record: a per-rank *tail*, not a global cut; marks and
ranks that never entered the step are kept from the seek point on.
The contract: reading from the seek point equals filtering the full
replay by ordinal, each rank's ``starts`` ordinal is its step-phase
record, and ``from_step=0`` reproduces the full replay exactly.

Those three properties are stated once (the ``check_*`` functions) and
held against a synthetic store and against the real store of an
airfoil run on every engine — where the measured engines' per-step
index used to be empty (``t0: null``, no per-rank time) because their
events were replayed stream by stream instead of in recording order.
"""

import pytest

from repro.obs.store import StoreReader, StoreTracer, load_store
from repro.obs.store.codec import KIND_MARK, KIND_OP, KIND_PHASE
from repro.obs.store.writer import INDEX_NAME
from repro.obs.tracer import event_ranks

from tests.obs.conftest import store_sizes

NRANKS = 3
STEPS = 5
PHASES = ("overflow", "motion", "dcf3d")


def build_store(directory):
    """A deterministic multi-rank store with one mark per step."""
    with store_sizes(flush_bytes=64):
        store = StoreTracer(directory)
    t = 0.0
    for step in range(STEPS):
        for phase in PHASES:
            # Every rank enters the phase before any cross-rank record
            # is emitted — mirroring the drivers, where the step-phase
            # mark is each rank's first record of the step.
            for r in range(NRANKS):
                store.phase(r, t, phase)
            for r in range(NRANKS):
                store.op(r, phase, "compute", t, t + 0.4 + r * 0.1,
                         50.0, 8)
                store.send(t, r, (r + 1) % NRANKS, 9, 256, phase)
                store.recv(t + 0.1, (r + 1) % NRANKS, r, 9, 256, phase)
            t += 1.0
        store.mark(t, "step-done", step=step)
    store.advance(t)
    store.close()


@pytest.fixture()
def reader(tmp_path):
    build_store(tmp_path)
    return StoreReader(tmp_path)


def kept_ordinals(reader, k, full):
    """Ordinals of the full replay that step ``k``'s replay keeps."""
    row = reader.steps[k]
    starts = {int(r): n for r, n in row["starts"].items()}
    return [
        n for n, (kind, fields) in enumerate(full)
        if n >= row["start"][2]
        and starts.get((event_ranks(kind, fields) or (None,))[0], n) <= n
    ]


def check_from_step_zero_is_full_replay(reader):
    """Returns what ``from_step=0`` leaves out: the records that come
    before any rank's first step, in the same relative order."""
    full = list(reader.iter_records())
    kept = set(kept_ordinals(reader, 0, full))
    assert list(reader.iter_records(from_step=0)) == [
        rec for n, rec in enumerate(full) if n in kept
    ]
    return [rec for n, rec in enumerate(full) if n not in kept]


def check_tail_is_ordered_subset_of_full(reader, nsteps):
    """Each step's replay, read from its seek position, is the full
    replay filtered by ordinal.  Returns ``(full, tails)``."""
    full = list(reader.iter_records())
    tails = [list(reader.iter_records(from_step=k)) for k in range(nsteps)]
    prev_len = len(full) + 1
    for k, tail in enumerate(tails):
        assert tail == [full[n] for n in kept_ordinals(reader, k, full)]
        # Strictly shrinking: each later step drops a step's worth.
        assert 0 < len(tail) < prev_len
        prev_len = len(tail)
    return full, tails


def check_each_rank_starts_on_its_step_phase(reader, nsteps, nranks):
    full = list(reader.iter_records())
    for row in reader.steps[:nsteps]:
        assert set(row["starts"]) == {str(r) for r in range(nranks)}
        assert row["start"][2] == min(row["starts"].values())
        for rank, n in row["starts"].items():
            kind, fields = full[n]
            assert kind == KIND_PHASE
            assert (fields[0], fields[2]) == (int(rank), "overflow")


class TestFromStep:
    def test_from_step_zero_is_full_replay(self, reader):
        assert check_from_step_zero_is_full_replay(reader) == []

    def test_tail_is_sorted_subset_of_full(self, reader):
        full, tails = check_tail_is_ordered_subset_of_full(reader, STEPS)
        for row, tail in zip(reader.steps, tails):
            # Every rank enters the step before any cross-rank record,
            # so the tail is also suffix-closed: everything from the
            # seek point on survives.
            assert tail == full[row["start"][2]:]

    def test_each_rank_starts_on_its_step_phase(self, reader):
        check_each_rank_starts_on_its_step_phase(reader, STEPS, NRANKS)

    def test_to_tracer_partial_view(self, reader):
        full = reader.to_tracer()
        part = reader.to_tracer(from_step=3)
        assert part.phase_marks[0] == (0, 3.0 * len(PHASES), "overflow")
        assert 0 < len(part.ops) < len(full.ops)
        # Only the step-3 and step-4 marks survive.
        assert [m[2]["step"] for m in part.marks] == [3, 4]
        assert part.ops == full.ops[-len(part.ops):]

    def test_load_store_passthrough(self, tmp_path):
        build_store(tmp_path)
        direct = StoreReader(tmp_path).to_tracer(from_step=2)
        via = load_store(tmp_path, from_step=2)
        assert via.ops == direct.ops
        assert via.marks == direct.marks

    def test_out_of_range_raises(self, reader):
        with pytest.raises(ValueError, match="out of range"):
            reader.to_tracer(from_step=STEPS)
        with pytest.raises(ValueError, match="out of range"):
            reader.to_tracer(from_step=-1)

    def test_no_index_raises(self, tmp_path):
        build_store(tmp_path)
        (tmp_path / INDEX_NAME).unlink()
        reader = StoreReader(tmp_path)
        # Full replay still works without an index ...
        assert list(reader.iter_records())
        # ... but partial replay needs the per-step offsets.
        with pytest.raises(ValueError, match="index"):
            reader.to_tracer(from_step=1)


ENGINES = [
    "sim",
    pytest.param("mp", marks=pytest.mark.mp),
    pytest.param("cluster", marks=[pytest.mark.mp, pytest.mark.cluster]),
]


@pytest.mark.parametrize("backend", ENGINES)
def test_every_engine_indexes_every_step(backend, tmp_path):
    """The store of a real run carries a usable per-step index whatever
    engine produced it (regression: empty on ``mp`` and ``cluster``)."""
    from repro.backend.mp import mp_available
    from repro.cases import airfoil_case
    from repro.machine import sp2
    from repro.obs import PhaseRollup
    from repro.obs.perf.traced import traced_run
    from repro.obs.perf.trends import trend_block

    if backend != "sim" and mp_available() is not None:
        pytest.skip(str(mp_available()))
    nranks, nsteps = 6, 3
    case = airfoil_case(machine=sp2(nodes=nranks), scale=0.1, nsteps=nsteps)
    traced_run(case, store_dir=tmp_path, backend=backend)
    reader = StoreReader(tmp_path)
    steps = reader.steps

    assert len(steps) == nsteps
    ranks = {str(r) for r in range(nranks)}
    for row in steps:
        assert row["t0"] < row["t1"]
        assert set(row["cells"]) == ranks
        for cells in row["cells"].values():
            assert set(PHASES) <= set(cells)
    # Per (phase, rank), the index's per-step [compute, comm, wait]
    # cells add up to what the full replay's rollup says.
    rollup = PhaseRollup.from_tracer(reader.to_tracer())
    for phase in PHASES:
        for r in range(nranks):
            cell = rollup.cell(r, phase)
            for i, kind in enumerate(("compute", "comm", "wait")):
                indexed = sum(row["cells"][str(r)][phase][i] for row in steps)
                assert indexed == pytest.approx(
                    getattr(cell, kind), rel=1e-9, abs=1e-12
                )
    assert all(busy > 0 for busy in trend_block(steps)["busy_s"])

    # A real run has a preamble no step owns: the opening epoch mark
    # and, on a measured engine, each rank's start-up compute span.
    for kind, fields in check_from_step_zero_is_full_replay(reader):
        assert kind == KIND_MARK or (kind == KIND_OP and fields[1] == "default")
    check_tail_is_ordered_subset_of_full(reader, nsteps)
    check_each_rank_starts_on_its_step_phase(reader, nsteps, nranks)
    full, part = reader.to_tracer(), reader.to_tracer(from_step=1)
    assert 0 < len(part.ops) < len(full.ops)
