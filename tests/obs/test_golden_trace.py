"""Golden-trace regression test (ISSUE satellite d).

A small 2-grid oscillating-airfoil configuration runs on a fixed
machine spec with tracing enabled; the per-rank/per-phase rollup
summary is compared against a checked-in golden JSON.  The driver and
scheduler are fully deterministic (no RNG anywhere in ``repro``), so
any drift here means the simulated cost model, scheduler dispatch
order or phase accounting changed — which must be a conscious decision
(regenerate with ``python tests/obs/test_golden_trace.py``).

A second test asserts the zero-cost-when-disabled contract: running
the same configuration without a tracer yields bit-identical simulated
timings.
"""

import json
import math
from pathlib import Path

import pytest

from repro.cases.airfoil import airfoil_grids
from repro.core import OverflowD1
from repro.core.config import CaseConfig
from repro.machine import MachineSpec, NetworkSpec, NodeSpec
from repro.motion import PitchOscillation
from repro.obs import PhaseRollup, SpanTracer

GOLDEN_PATH = Path(__file__).parent / "golden_airfoil_trace.json"

#: Frozen machine so preset tweaks never invalidate the golden file.
GOLDEN_MACHINE = MachineSpec(
    "golden-sp", 3, NodeSpec(flops=125e6),
    NetworkSpec(latency=40e-6, bandwidth=1.0 / 0.11e-6),
)


def golden_config() -> CaseConfig:
    grids = airfoil_grids(scale=0.05)[:2]  # airfoil + near-field only
    return CaseConfig(
        name="golden 2-grid airfoil",
        grids=grids,
        machine=GOLDEN_MACHINE,
        search_lists={0: [1], 1: [0]},
        motions={0: PitchOscillation()},
        nsteps=3,
        dt=0.05,
        f0=math.inf,
        fringe_layers=1,
    )


def run_traced():
    tracer = SpanTracer()
    run = OverflowD1(golden_config(), tracer=tracer).run()
    return run, tracer


class TestGoldenTrace:
    def test_rollup_matches_golden(self):
        run, _ = run_traced()
        got = run.rollup().summary()
        want = json.loads(GOLDEN_PATH.read_text())
        assert got["nranks"] == want["nranks"]
        assert sorted(got["phases"]) == sorted(want["phases"])
        assert got["elapsed"] == pytest.approx(want["elapsed"], rel=1e-9)
        assert got["total_flops"] == pytest.approx(
            want["total_flops"], rel=1e-9
        )
        for name, w in want["phases"].items():
            g = got["phases"][name]
            assert g["events"] == w["events"], f"event count drift in {name}"
            for key in ("total_s", "max_s", "wait_s"):
                assert g[key] == pytest.approx(w[key], rel=1e-9, abs=1e-12), (
                    f"{name}.{key} drifted"
                )

    def test_span_event_counts_match_golden(self):
        """Exact per-phase span counts — scheduler dispatch is frozen."""
        _, tracer = run_traced()
        want = json.loads(GOLDEN_PATH.read_text())["span_events"]
        got = PhaseRollup.from_tracer(tracer).summary()
        assert {
            p: v["events"] for p, v in got["phases"].items()
        } == want

    def test_igbp_matches_golden(self):
        run, _ = run_traced()
        want = json.loads(GOLDEN_PATH.read_text())["igbp"]
        got = run.igbp_rollup().summary()
        assert got["I"] == want["I"]
        assert got["nsteps"] == want["nsteps"]
        assert got["ibar"] == pytest.approx(want["ibar"], rel=1e-9)

    def test_tracer_rollup_agrees_with_metrics_rollup(self):
        """Full-fidelity and coarse-counter rollups agree exactly."""
        run, tracer = run_traced()
        from_rows = run.rollup()
        from_tracer = PhaseRollup.from_tracer(tracer)
        assert from_tracer.nranks == from_rows.nranks
        for phase in from_rows.phases():
            assert from_tracer.phase_total(phase) == pytest.approx(
                from_rows.phase_total(phase), rel=1e-12
            )
            assert from_tracer.phase_wait(phase) == pytest.approx(
                from_rows.phase_wait(phase), rel=1e-12
            )

    def test_phase_totals_cover_elapsed(self):
        """Per-rank accounted seconds tile the run's elapsed time."""
        run, tracer = run_traced()
        roll = run.rollup()
        for rank in range(roll.nranks):
            ops = tracer.rank_ops(rank)
            accounted = sum(e[4] - e[3] for e in ops)
            final = max(e[4] for e in ops)
            assert accounted == pytest.approx(final, rel=1e-12)
        assert tracer.t_end == pytest.approx(run.elapsed, rel=1e-12)

    def test_disabled_tracing_is_bit_identical(self):
        traced, _ = run_traced()
        plain = OverflowD1(golden_config()).run()
        assert plain.elapsed == traced.elapsed  # exact, not approx
        assert plain.time_per_step == traced.time_per_step
        assert plain.mflops_per_node == traced.mflops_per_node
        for pe, te in zip(plain.epochs, traced.epochs):
            assert pe.elapsed == te.elapsed
            for phase in pe.rollup.phases():
                assert pe.rollup.phase_seconds(phase).tolist() == (
                    te.rollup.phase_seconds(phase).tolist()
                )

    def test_run_is_deterministic(self):
        a, _ = run_traced()
        b, _ = run_traced()
        assert a.elapsed == b.elapsed
        assert a.rollup().summary() == b.rollup().summary()


def regenerate() -> None:  # pragma: no cover - manual tool
    run, tracer = run_traced()
    doc = run.rollup().summary()
    doc["igbp"] = run.igbp_rollup().summary()
    traced = PhaseRollup.from_tracer(tracer).summary()
    doc["span_events"] = {
        p: v["events"] for p, v in traced["phases"].items()
    }
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
