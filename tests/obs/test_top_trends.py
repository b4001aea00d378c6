"""Live tailing (`repro top`) and per-step trend analytics."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cases import airfoil_case
from repro.core import OverflowD1
from repro.machine import sp2
from repro.obs.store import (
    KIND_OP,
    KIND_SEND,
    SegmentWriter,
    StoreTracer,
    TailReader,
    load_index,
)
from repro.obs.store.codec import encode_record
from repro.obs.store.segment import numbered_segments
from repro.obs.store.top import TopAggregator, render_top, run_top
from repro.obs.perf.trends import (
    step_series,
    trend_block,
    trend_chart,
    trend_csv,
    write_trend_csv,
)

from tests.obs.conftest import store_sizes


def op_rec(rank, phase, kind, t0, t1, flops=0.0, nbytes=0):
    return (KIND_OP, [rank, phase, kind, t0, t1, flops, nbytes])


class TestTailReader:
    def test_incremental_polls_see_only_new_records(self, tmp_path):
        with store_sizes(flush_bytes=1):
            store = StoreTracer(tmp_path)
        store.op(0, "p", "compute", 0.0, 1.0)
        store.flush()
        tail = TailReader(tmp_path)
        assert tail.poll() == [(KIND_OP, (0, "p", "compute", 0.0, 1.0,
                                          0.0, 0))]
        assert tail.poll() == []
        store.op(1, "p", "compute", 1.0, 2.0)
        store.send(1.0, 0, 1, 5, 256, "p")
        store.flush()
        second = tail.poll()
        assert [kind for kind, _ in second] == [KIND_OP, KIND_SEND]
        store.close()

    def test_partial_frame_is_in_flight_not_an_error(self, tmp_path):
        with store_sizes(flush_bytes=1):
            w = SegmentWriter(tmp_path)
        w.append(KIND_OP, (0, "p", "compute", 0.0, 1.0, 0.0, 0))
        w.close()
        tail = TailReader(tmp_path)
        assert len(tail.poll()) == 1
        # A writer mid-flush: half a frame on disk.
        fields = (0, "p", "compute", 1.0, 2.0, 0.0, 0)
        frame = encode_record(KIND_OP, fields)
        path = numbered_segments(tmp_path)[0]
        with open(path, "ab") as f:
            f.write(frame[: len(frame) // 2])
        assert tail.poll() == []  # retried, not raised
        with open(path, "ab") as f:
            f.write(frame[len(frame) // 2:])
        assert tail.poll() == [(KIND_OP, fields)]

    def test_follows_segment_rotation(self, tmp_path):
        with store_sizes(segment_bytes=256, flush_bytes=1):
            store = StoreTracer(tmp_path)
        tail = TailReader(tmp_path)
        total = 0
        for i in range(60):
            store.op(0, "p", "compute", float(i), float(i) + 0.5)
            if i % 7 == 0:
                total += len(tail.poll())
        store.close()
        total += len(tail.poll())
        assert total == 60
        assert len(numbered_segments(tmp_path)) > 1


class TestTopAggregator:
    def feed_basic(self):
        agg = TopAggregator()
        agg.feed([
            op_rec(0, "overflow", "compute", 0.0, 3.0),
            op_rec(0, "overflow", "wait", 3.0, 4.0),
            op_rec(1, "overflow", "compute", 0.0, 1.0),
            (KIND_SEND, [0.5, 0, 1, 9, 4096, "overflow"]),
            (KIND_SEND, [0.6, 0, 1, 9, 1024, "overflow"]),
            (KIND_SEND, [0.7, 1, 0, 9, 512, "overflow"]),
        ])
        return agg

    def test_busy_wait_and_imbalance(self):
        agg = self.feed_basic()
        assert agg.seconds(0) == pytest.approx((3.0, 1.0))
        f = agg.imbalance()
        # mean busy = 2.0 -> f(0)=1.5, f(1)=0.5 (paper's f(p) shape).
        assert f[0] == pytest.approx(1.5)
        assert f[1] == pytest.approx(0.5)

    def test_hot_edges_sorted_by_bytes(self):
        agg = self.feed_basic()
        assert agg.hot_edges() == [(0, 1, 2, 5120), (1, 0, 1, 512)]
        assert agg.sends == 3


class TestRenderAndRunTop:
    def make_store(self, tmp_path, nranks=3, steps=2):
        store = StoreTracer(tmp_path)
        t = 0.0
        for step in range(steps):
            for r in range(nranks):
                store.phase(r, t, "overflow")
                store.op(r, "overflow", "compute", t, t + 1.0 + 0.2 * r)
                store.op(r, "overflow", "wait", t + 1.6, t + 1.8)
                store.send(t, r, (r + 1) % nranks, 3, 2048, "overflow")
            store.mark(t, "step", n=step)
            t += 2.0
        store.close()

    def test_snapshot_contents(self, tmp_path):
        self.make_store(tmp_path)
        frames = []
        rc = run_top(tmp_path, once=True, emit=frames.append)
        assert rc == 0 and len(frames) == 1
        frame = frames[0]
        assert str(tmp_path) in frame
        assert "complete" in frame
        assert "hot edges (by bytes):" in frame
        assert "recent marks:" in frame
        # One row per rank, with busy seconds and f(p).
        for rank in range(3):
            assert any(line.split()[:1] == [str(rank)]
                       for line in frame.splitlines())
        assert "f(p)" in frame

    def test_loop_mode_terminates_on_complete_store(self, tmp_path):
        self.make_store(tmp_path)
        frames = []
        rc = run_top(tmp_path, interval=0.0, emit=frames.append)
        assert rc == 0
        assert frames  # rendered at least once, then observed completion

    def test_loop_mode_bounded_on_live_store(self, tmp_path):
        with store_sizes(flush_bytes=1):
            store = StoreTracer(tmp_path)
        store.op(0, "p", "compute", 0.0, 1.0)
        store.flush()  # live: index not yet complete
        frames = []
        rc = run_top(tmp_path, interval=0.0, emit=frames.append,
                     max_refreshes=3)
        assert rc == 0
        assert len(frames) == 3
        store.close()

    def test_cli_top_once(self, tmp_path, capsys):
        from repro.cli import main

        self.make_store(tmp_path)
        assert main(["top", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "complete" in out

    def test_cli_top_missing_store_errors(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no trace store"):
            main(["top", str(tmp_path / "nope"), "--once"])


def sim_steps(tmp_path, nsteps=4):
    store = StoreTracer(tmp_path)
    cfg = airfoil_case(machine=sp2(nodes=4), scale=0.1, nsteps=nsteps)
    OverflowD1(cfg, tracer=store).run()
    store.close()
    return load_index(tmp_path)["steps"]


class TestTrends:
    def test_step_series_shapes(self, tmp_path):
        steps = sim_steps(tmp_path, nsteps=4)
        series = step_series(steps)
        assert series["steps"] == 4
        assert "overflow" in series["phases"]
        for phase in series["phases"]:
            assert len(series["phase_total_s"][phase]) == 4
            assert len(series["phase_max_s"][phase]) == 4
        assert len(series["imbalance"]) == 4
        assert all(f >= 1.0 for f in series["imbalance"])
        assert all(b > 0 for b in series["busy_s"])

    def test_trend_block_is_json_safe_and_bounded(self, tmp_path):
        steps = sim_steps(tmp_path, nsteps=3)
        block = trend_block(steps)
        json.dumps(block, allow_nan=False)  # canonical-JSON compatible
        assert block["steps"] == 3
        assert block["imbalance_max"] == max(block["imbalance"])
        assert len(block["busy_s"]) == 3

    def test_trend_chart_renders_both_charts(self, tmp_path):
        steps = sim_steps(tmp_path, nsteps=3)
        chart = trend_chart(step_series(steps))
        assert "per-step phase time" in chart
        assert "per-step busy imbalance" in chart

    def test_trend_csv_roundtrips_through_csv_reader(self, tmp_path):
        import csv
        import io

        steps = sim_steps(tmp_path, nsteps=3)
        text = trend_csv(steps)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][:5] == ["step", "span_s", "busy_s", "wait_s",
                               "imbalance"]
        assert len(rows) == 4  # header + 3 steps
        assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
        out = write_trend_csv(steps, tmp_path / "trends.csv")
        assert out.read_text() == text

    def test_empty_steps(self):
        series = step_series([])
        assert series["steps"] == 0
        assert series["imbalance"] == []
        assert trend_chart(series) == "(no steps recorded)"
        block = trend_block([])
        assert block["steps"] == 0 and block["imbalance_max"] == 1.0
        assert trend_csv([]).splitlines()[0].startswith("step,")


class TestBenchTrend:
    def test_bench_payload_carries_deterministic_trend(self, tmp_path):
        from repro.obs.perf.bench import bench_payload

        def simulated(store_dir):
            payload = bench_payload(
                "airfoil", quick=True, trace_store=str(store_dir),
            )
            return payload["simulated"]

        a = simulated(tmp_path / "a")
        b = simulated(tmp_path / "b")
        assert "trend" in a
        assert a["trend"]["steps"] > 0
        assert len(a["trend"]["imbalance"]) == a["trend"]["steps"]
        # Deterministic: same case, same knobs, byte-identical section.
        dump = lambda p: json.dumps(p, sort_keys=True, allow_nan=False)
        assert dump(a) == dump(b)
        # The store named in trace_store was actually used and sealed.
        assert load_index(tmp_path / "a")["complete"] is True


@pytest.mark.mp
class TestLiveTopOverMp:
    """Acceptance: `repro top --once` snapshots a live mp job."""

    def test_top_once_during_and_after_mp_run(self, tmp_path):
        from repro.backend.mp import mp_available

        if mp_available() is not None:
            pytest.skip(str(mp_available()))
        store = tmp_path / "store"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "airfoil",
             "--backend", "mp", "--nodes", "4", "--scale", "0.25",
             "--steps", "6", "--trace-store", str(store)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(Path(__file__).resolve().parents[2]),
        )
        try:
            deadline = time.monotonic() + 120
            while not store.is_dir() or (
                load_index(store) is None
                and not any(store.glob("*.seg"))
            ):
                if time.monotonic() >= deadline:
                    pytest.fail("trace store never appeared")
                if proc.poll() is not None and not store.is_dir():
                    pytest.fail("mp run exited without creating the store")
                time.sleep(0.1)
            # Snapshot while the job may still be running: must render
            # cleanly from whatever is durable.
            frames = []
            assert run_top(store, once=True, emit=frames.append) == 0
            assert "repro top" in frames[0]
            assert proc.wait(timeout=240) == 0
            # After completion the snapshot shows the sealed store.
            frames = []
            assert run_top(store, once=True, emit=frames.append) == 0
            final = frames[0]
            assert "complete" in final
            assert "wall clock" in final
            for rank in range(4):
                assert any(line.split()[:1] == [str(rank)]
                           for line in final.splitlines())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
