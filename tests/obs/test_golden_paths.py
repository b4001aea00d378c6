"""Golden pins for the two timestep paths the airfoil golden trace misses.

``test_golden_trace.py`` pins one near-body run without latency hiding.
This module pins, byte for byte on the simulator, the off-body workload
(seeded ``debris`` and ``store-salvo`` scenarios, two adapt epochs each)
and the near-body ``overlap_halo`` flow path: per run, the
``run_summary``, the off-body ``physics_signature``, the tracer rollup,
the event count of every tracer stream and the communication matrix.
None of these reads a message tag, so renumbering a tag leaves the
golden file valid; anything that moves simulated time or a message does
not.  Regenerate on purpose with ``python tests/obs/test_golden_paths.py``.
"""

import json
from pathlib import Path

import pytest

from repro.cases import airfoil_case
from repro.core import build_driver
from repro.core.runner import run_summary
from repro.machine import sp2
from repro.obs import PhaseRollup, SpanTracer
from repro.obs.perf.comm_matrix import CommMatrix
from repro.offbody import build_offbody_case, generate_scenario

GOLDEN_PATH = Path(__file__).parent / "golden_paths.json"

NSTEPS = 4


def overlap_airfoil():
    cfg = airfoil_case(machine=sp2(nodes=6), scale=0.05, nsteps=NSTEPS)
    cfg.overlap_halo = True
    return cfg


def scenario(kind: str, seed: int):
    # adapt_interval 2 over four steps: two adapt epochs.
    return lambda: build_offbody_case(
        generate_scenario(kind, seed=seed), nsteps=NSTEPS
    )


CASES = {
    "airfoil-overlap-halo": overlap_airfoil,
    "debris-5": scenario("debris", 5),
    "store-salvo-7": scenario("store-salvo", 7),
}


def record(name: str) -> dict:
    """Everything pinned for one case, as canonical JSON data."""
    tracer = SpanTracer()
    run = build_driver(CASES[name](), tracer=tracer).run()
    doc = {
        "run_summary": run_summary(run),
        "wall_elapsed": run.wall_elapsed,
        "tracer_rollup": PhaseRollup.from_tracer(tracer).summary(),
        "stream_events": {
            stream: len(getattr(tracer, stream))
            for stream in ("ops", "phase_marks", "marks", "sends", "recvs")
        },
        "comm_matrix": CommMatrix.from_tracer(tracer).to_dict(),
    }
    if hasattr(run, "physics_signature"):  # the off-body driver
        doc["physics_signature"] = run.physics_signature()
    return json.loads(json.dumps(doc, sort_keys=True))


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    want = json.loads(GOLDEN_PATH.read_text())[name]
    got = record(name)
    for key in sorted(want):
        assert got[key] == want[key], f"{name}: {key} drifted"
    assert sorted(got) == sorted(want)


def test_offbody_cases_cover_two_adapt_epochs():
    golden = json.loads(GOLDEN_PATH.read_text())
    for name in ("debris-5", "store-salvo-7"):
        assert len(golden[name]["physics_signature"]["epochs"]) >= 2


def regenerate() -> None:  # pragma: no cover - manual tool
    doc = {name: record(name) for name in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
