"""One workload in one fresh process: set up, warm up, repeat, report.

Run by ``cli`` as ``python -m benchmarks.perf.child '<json spec>'``; the
last line of standard output is one JSON object.  Untraced mode times
repeats until its share of the run's seconds is spent, each under the
host-speed sampler (as are set-up and warm-up).  Traced mode takes a few
untraced repeats as the base, installs the wrappers, takes traced
repeats, removes the wrappers and runs the workload's probes.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from time import perf_counter
from typing import Any

from benchmarks.perf import OUT_DIR
from benchmarks.perf.checks import reference_digest
from benchmarks.perf.stats import HostSpeedSampler

#: Fields of a repeat that hold live objects, not JSON.
_LIVE = ("run", "sanitizer")


def _peak_rss_mb() -> float:
    """Largest resident set of this process or of its largest child."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def _plain(rep: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in rep.items() if k not in _LIVE}


class _Checker:
    """Every repeat must reproduce every digest known for the inputs:
    the committed reference, an independent computation (mp: the sim
    run) and the warm-up repeat."""

    def __init__(self, workload: Any, spec: dict[str, Any]) -> None:
        self.expected: dict[str, str] = {}
        ref = reference_digest(
            workload.name, spec["seed"], spec["smoke"], spec.get("reference")
        )
        if ref is not None:
            self.expected["reference"] = ref
        if workload.expected_digest is not None:
            self.expected["independent"] = workload.expected_digest
        self.mismatches: list[str] = []

    def warm_up(self, rep: dict[str, Any]) -> None:
        self.check(rep)
        self.expected["warm-up"] = rep["digest"]

    def check(self, rep: dict[str, Any]) -> None:
        wrong = [k for k, v in self.expected.items() if v != rep["digest"]]
        if wrong:
            self.mismatches.extend(wrong)
            rep["failed"] = rep["attempted"]


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    from benchmarks.perf.workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]](spec["seed"], spec["smoke"])
    sampler = HostSpeedSampler()
    with sampler:
        workload.setup()
    try:
        with sampler:
            checker = _Checker(workload, spec)
            checker.warm_up(workload.repeat())
        if spec["trace"]:
            out = _traced(workload, checker, spec)
        else:
            out = _untraced(workload, checker, spec)
            out["setup_scale"] = sampler.scale
    finally:
        workload.teardown()
    import numpy

    out.update(
        digest=checker.expected["warm-up"],
        mismatches=sorted(set(checker.mismatches)),
        peak_rss_mb=_peak_rss_mb(),
        numpy=numpy.__version__,
    )
    print(json.dumps(out))
    return 0


def _untraced(workload: Any, checker: _Checker, spec: dict[str, Any]) -> dict[str, Any]:
    ready = time.time()
    deadline = perf_counter() + spec["budget_s"]
    repeats = []
    while True:
        started = perf_counter()
        try:
            with HostSpeedSampler() as sampler:
                rep = _plain(workload.repeat())
            checker.check(rep)
            rep["host_scale"] = sampler.scale
        except Exception as exc:  # noqa: BLE001 - a failed operation, reported
            rep = {"attempted": 1, "failed": 1, "error": repr(exc)}
        repeats.append(rep)
        # Stop rather than start a repeat that would mostly overshoot.
        half = (perf_counter() - started) / 2.0
        if len(repeats) >= spec["min_repeats"] and perf_counter() + half >= deadline:
            break
    return {"ready_at": ready, "repeats": repeats}


def _traced(workload: Any, checker: _Checker, spec: dict[str, Any]) -> dict[str, Any]:
    from benchmarks.perf import layers
    from benchmarks.perf.spans import Recorder

    base = []
    for _ in range(spec["min_repeats"]):
        rep = workload.repeat()
        checker.check(rep)
        base.append(rep)
    base_wall = statistics.median(r["wall_s"] for r in base)

    rec = Recorder()
    patcher = layers.install(rec)
    traced, per_repeat = [], []
    deadline = perf_counter() + spec["budget_s"]
    try:
        while True:
            rec.reset()
            rep = workload.repeat()
            checker.check(rep)
            per_repeat.append(
                layers.layer_metrics(
                    rec, rep.get("run"), rep.get("sanitizer"), workload.measured
                )
            )
            traced.append(rep)
            if perf_counter() >= deadline:
                break
    finally:
        patcher.undo()

    metrics = {
        name: statistics.median(m[name] for m in per_repeat)
        for name in layers.UNITS
    }
    # What the workload measured from outside comes from the untraced
    # repeats: the wrappers would inflate client-side latencies.
    for name in base[0].get("layer", {}):
        metrics[name] = statistics.median(r["layer"][name] for r in base)
    metrics.update(workload.probes(base_wall))
    metrics["bench.trace_overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced) / base_wall - 1.0
    )

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"trace_{workload.name}.json"
    trace_path.write_text(json.dumps({
        "workload": workload.name,
        "seed": spec["seed"],
        "spans": rec.spans,
        "aggregates": {
            name: dict(zip(("calls", "resumes", "total_ns", "self_ns"), row))
            for name, row in sorted(rec.agg.items())
        },
        "counts": rec.counts,
    }))
    return {
        "repeats": [_plain(r) for r in base + traced],
        "layer_metrics": metrics,
        "trace_file": str(trace_path),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv))
