"""Tests for the trace exporters (Chrome JSON, CSV, ASCII timeline)."""

import json

import pytest

from repro.obs import (
    PhaseRollup,
    SpanTracer,
    ascii_timeline,
    chrome_trace,
    rollup_csv,
    write_chrome_trace,
    write_rollup_csv,
)


def toy_tracer():
    t = SpanTracer()
    t.op(0, "flow", "compute", 0.0, 1.0, flops=100.0)
    t.op(0, "flow", "comm", 1.0, 1.1, nbytes=64)
    t.op(0, "dcf", "wait", 1.1, 1.5, nbytes=64)
    t.op(1, "flow", "compute", 0.0, 1.5, flops=150.0)
    t.phase(0, 0.0, "flow")
    t.mark(1.5, "epoch", first_step=0, nsteps=2)
    return t


class TestChromeTrace:
    def test_valid_json_object_format(self):
        doc = json.loads(chrome_trace(toy_tracer()))
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        assert isinstance(doc["traceEvents"], list)

    def test_metadata_names_ranks(self):
        doc = json.loads(chrome_trace(toy_tracer()))
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "rank 0" in names and "rank 1" in names

    def test_op_events_microseconds(self):
        doc = json.loads(chrome_trace(toy_tracer()))
        ops = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e.get("pid") == 0
        ]
        compute = next(e for e in ops if e["name"] == "compute")
        assert compute["ts"] == pytest.approx(0.0)
        assert compute["dur"] == pytest.approx(1.0e6)  # 1 s -> 1e6 us
        assert compute["cat"] == "flow"
        assert compute["args"]["flops"] == 100.0
        comm = next(e for e in ops if e["name"] == "comm")
        assert comm["args"]["bytes"] == 64

    def test_phase_bands_on_separate_track(self):
        doc = json.loads(chrome_trace(toy_tracer()))
        bands = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e.get("pid") == 1
        ]
        assert {e["name"] for e in bands} == {"flow", "dcf"}
        assert all(e["cat"] == "phase" for e in bands)

    def test_marks_are_global_instants(self):
        doc = json.loads(chrome_trace(toy_tracer()))
        inst = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(inst) == 1
        assert inst[0]["name"] == "epoch"
        assert inst[0]["s"] == "g"
        assert inst[0]["args"]["nsteps"] == 2

    def test_comm_counter_series_cumulative_per_phase(self):
        t = toy_tracer()
        t.send(0.5, 0, 1, 7, 64, "flow")
        t.send(1.0, 1, 0, 7, 32, "flow")
        t.send(1.2, 0, 1, 8, 16, "dcf")
        doc = json.loads(chrome_trace(t))
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert all(e["pid"] == 2 and e["cat"] == "comm" for e in counters)
        flow = [e for e in counters if e["name"] == "comm flow"]
        assert [e["args"]["bytes"] for e in flow] == [64, 96]
        assert [e["args"]["msgs"] for e in flow] == [1, 2]
        dcf = [e for e in counters if e["name"] == "comm dcf"]
        assert [e["args"]["bytes"] for e in dcf] == [16]
        assert flow[0]["ts"] == pytest.approx(0.5e6)
        meta = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["pid"] == 2
        ]
        assert meta[0]["args"]["name"] == "comm counters"

    def test_no_counters_without_sends(self):
        doc = json.loads(chrome_trace(toy_tracer()))
        assert not [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert not [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["pid"] == 2
        ]

    def test_write_creates_parents(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "t.json"
        got = write_chrome_trace(toy_tracer(), out)
        assert got == out and out.exists()
        json.loads(out.read_text())


class TestRollupCsv:
    def test_header_and_rows(self):
        roll = PhaseRollup.from_tracer(toy_tracer())
        lines = rollup_csv(roll).splitlines()
        assert lines[0] == (
            "rank,phase,compute_s,comm_s,wait_s,total_s,flops,bytes,events"
        )
        # nranks * nphases data rows.
        assert len(lines) == 1 + roll.nranks * len(roll.phases())
        row0 = lines[1].split(",")
        assert row0[0] == "0" and row0[1] == "flow"
        assert float(row0[2]) == pytest.approx(1.0)  # compute_s
        assert int(row0[8]) == 2  # events

    def test_write_roundtrip(self, tmp_path):
        roll = PhaseRollup.from_tracer(toy_tracer())
        path = write_rollup_csv(roll, tmp_path / "r.csv")
        text = path.read_text()
        assert text.endswith("\n")
        assert len(text.splitlines()) == 1 + roll.nranks * 2


class TestAsciiTimeline:
    def test_renders_rows_and_legend(self):
        art = ascii_timeline(toy_tracer(), width=40)
        assert "rank   0" in art and "rank   1" in art
        assert "flow" in art and "dcf" in art

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            ascii_timeline(SpanTracer())

    def test_width_respected(self):
        art = ascii_timeline(toy_tracer(), width=24)
        row = next(
            ln for ln in art.splitlines() if ln.startswith("rank   0")
        )
        assert row.count("|") == 2
        body = row.split("|")[1]
        assert len(body) == 24
