"""Checkpoint container: format, determinism, corruption, store, Q."""

import numpy as np
import pytest

from repro.resilience import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointStore,
)


def sample_checkpoint(step=40):
    return Checkpoint.pack(
        {"case": "test", "step": step},
        {
            "alpha": {"x": np.arange(10.0), "k": 3},
            "beta": [1, 2, (3, 4)],
        },
    )


class TestPackUnpack:
    def test_round_trip(self):
        ck = sample_checkpoint()
        out = ck.unpack()
        assert np.array_equal(out["alpha"]["x"], np.arange(10.0))
        assert out["beta"] == [1, 2, (3, 4)]

    def test_unpack_is_a_deep_copy(self):
        live = {"x": np.zeros(4)}
        ck = Checkpoint.pack({"step": 0}, {"s": live})
        live["x"][:] = 99.0  # mutate after packing
        assert np.array_equal(ck.unpack()["s"]["x"], np.zeros(4))
        # Two unpacks are independent of each other too.
        a, b = ck.unpack()["s"]["x"], ck.unpack()["s"]["x"]
        a[:] = 7.0
        assert np.array_equal(b, np.zeros(4))

    def test_nbytes_and_step(self):
        ck = sample_checkpoint(step=12)
        assert ck.step == 12
        assert ck.nbytes == sum(len(b) for b in ck.sections.values())


class TestWireFormat:
    def test_magic_and_version(self):
        blob = sample_checkpoint().to_bytes()
        assert blob[:8] == CHECKPOINT_MAGIC
        assert CHECKPOINT_VERSION == 5

    def test_bytes_round_trip(self):
        ck = sample_checkpoint()
        back = Checkpoint.from_bytes(ck.to_bytes())
        assert back.meta == ck.meta
        assert back.sections == ck.sections
        assert back.to_bytes() == ck.to_bytes()

    def test_bytes_are_deterministic(self):
        # Same state -> same bytes, across repeated packs (no
        # timestamps, fixed pickle protocol, canonical JSON header).
        assert sample_checkpoint().to_bytes() == sample_checkpoint().to_bytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError, match="bad magic"):
            Checkpoint.from_bytes(b"NOTACKPT" + b"\0" * 32)

    def test_unknown_version_rejected(self):
        # 9: from the future; 1: written before the driver state moved
        # into repro.core.runner (its pickles name a class that is gone);
        # 2: its carry holds the dict-shaped RestartCache; 3: its
        # in-flight epoch carries time/flops dicts, not PhaseCell rows;
        # 4: it has a ``world`` section beside ``config`` and ``driver``.
        for version in (9, 1, 2, 3, 4):
            blob = bytearray(sample_checkpoint().to_bytes())
            idx = blob.find(b'"version":5')
            assert idx > 0
            blob[idx : idx + 11] = b'"version":%d' % version
            with pytest.raises(
                CheckpointError, match=f"version {version} not supported"
            ):
                Checkpoint.from_bytes(bytes(blob))

    def test_truncation_detected(self):
        blob = sample_checkpoint().to_bytes()
        with pytest.raises(CheckpointError, match="truncated"):
            Checkpoint.from_bytes(blob[:-5])

    def test_bit_flip_detected(self):
        blob = bytearray(sample_checkpoint().to_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte, header stays intact
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            Checkpoint.from_bytes(bytes(blob))


class TestDisk:
    def test_save_load_round_trip(self, tmp_path):
        ck = sample_checkpoint()
        path = ck.save(tmp_path / "a" / "ck.rpk")
        assert path.is_file()
        back = Checkpoint.load(path)
        assert back.to_bytes() == ck.to_bytes()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint at"):
            Checkpoint.load(tmp_path / "nope.rpk")

    def test_no_tmp_file_left_behind(self, tmp_path):
        sample_checkpoint().save(tmp_path / "ck.rpk")
        assert list(tmp_path.glob("*.tmp")) == []


class TestStore:
    def test_write_requires_step(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="lacks a 'step'"):
            store.write(Checkpoint.pack({"case": "x"}, {"s": 1}))

    def test_latest_is_highest_step(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for step in (5, 40, 12):
            store.write(sample_checkpoint(step))
        assert store.latest().step == 40
        assert [p.name for p in store.paths()] == [
            "ckpt-step000005.rpk",
            "ckpt-step000012.rpk",
            "ckpt-step000040.rpk",
        ]

    def test_steps_past_six_digits_order_numerically(self, tmp_path):
        """``ckpt-step1000000`` sorts before ``ckpt-step999999`` as a
        string; the store orders by the parsed step."""
        store = CheckpointStore(tmp_path)
        for step in (999_998, 999_999, 1_000_000):
            store.write(sample_checkpoint(step))
        assert store.latest().step == 1_000_000
        store.write(sample_checkpoint(1_000_001))
        assert [p.name for p in store.paths()] == [
            "ckpt-step999999.rpk",
            "ckpt-step1000000.rpk",
            "ckpt-step1000001.rpk",
        ]

    def test_prune_keeps_newest_k(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.resilience.checkpoint.KEEP", 2)
        store = CheckpointStore(tmp_path)
        for step in (1, 2, 3, 4):
            store.write(sample_checkpoint(step))
        assert [p.name for p in store.paths()] == [
            "ckpt-step000003.rpk",
            "ckpt-step000004.rpk",
        ]

    def test_empty_store(self, tmp_path):
        store = CheckpointStore(tmp_path / "empty")
        assert store.latest() is None
        assert store.paths() == []


class TestSolverQRoundTrip:
    """Checkpointed physics state resumes bit-identically (final Q)."""

    def make_driver(self):
        from repro.cases.airfoil import AIRFOIL_SEARCH_LISTS, airfoil_grids
        from repro.core import Overset2D
        from repro.motion import PitchOscillation
        from repro.solver import FlowConfig

        return Overset2D(
            airfoil_grids(scale=0.05),
            FlowConfig(mach=0.5, reynolds=1e4, cfl=2.0),
            AIRFOIL_SEARCH_LISTS,
            motions={0: PitchOscillation()},
            fringe_layers=2,
        )

    def test_final_q_bit_identical_after_restore(self, tmp_path):
        a = self.make_driver()
        for _ in range(2):
            a.step()
        snap = Checkpoint.pack({"step": a.step_count}, {"q": a.snapshot()})
        path = snap.save(tmp_path / "phys.rpk")
        for _ in range(2):
            a.step()

        b = self.make_driver()
        b.restore_state(Checkpoint.load(path).unpack()["q"])
        assert b.step_count == 2
        for _ in range(2):
            b.step()

        for sa, sb in zip(a.solvers, b.solvers):
            assert np.array_equal(sa.q, sb.q)
        assert a.time == b.time

    def test_snapshot_is_independent_of_live_state(self):
        d = self.make_driver()
        snap = d.snapshot()
        d.step()
        # Live Q moved on; the snapshot kept the old state.
        assert not all(
            np.array_equal(s.q, q) for s, q in zip(d.solvers, snap["q"])
        )
        d.restore_state(snap)
        assert all(
            np.array_equal(s.q, q) for s, q in zip(d.solvers, snap["q"])
        )
