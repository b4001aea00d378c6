"""``python -m benchmarks.perf``: run workloads, print metrics, write JSON.

One *run* of a workload is what the driver's contract asks for
(``--workload W --seed N --seconds S --trace 0|1``; the last line of
standard output is the contract's JSON object).  Without ``--workload``
every workload runs; ``--traced`` adds the traced pass, ``--runs N``
repeats the untraced run at seeds ``seed .. seed+N-1`` so that
``benchmarks.perf.compare`` has a spread to judge, and everything lands
in one result JSON under ``benchmarks/perf/out/``.

An untraced run starts :data:`CHILDREN` fresh subprocesses one after
another, so ``setup_s`` is a median of several set-ups, and gives each
an equal share of ``--seconds`` for timed repeats.  Every timing is
scaled to the host's nominal speed as sampled while it ran (see
``stats.HostSpeedSampler``); the raw host seconds stay in the result
file's ``detail`` block.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from benchmarks.perf import OUT_DIR, ROOT
from benchmarks.perf.checks import REFERENCE
from benchmarks.perf.stats import NOISY_SHARE, calibrate, summary
from benchmarks.perf.workloads import WORKLOADS

SCHEMA = "repro-perfbench/1"
#: Fresh subprocesses per untraced run (one in smoke mode).
CHILDREN = 3
#: Timed repeats a child takes at least (one in smoke mode).
MIN_REPEATS = 2
DEFAULT_SEED = 11


def load_contract() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# children


def _run_child(spec: dict[str, Any], timeout: float) -> tuple[float, dict[str, Any] | None, str]:
    """Run one child to completion; returns (spawn time, result, stderr).

    The child leads its own process group, which is killed once it has
    answered (or timed out), so no mp rank or pool worker outlives it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spawned = time.time()
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.perf.child", json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"child timed out after {timeout:.0f}s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return spawned, None, stderr
    return spawned, json.loads(lines[-1]), stderr


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool,
    reference: str | None = None,
) -> dict[str, Any]:
    """One run of one workload; returns its record for the result JSON."""
    nchildren = 1 if smoke or trace else CHILDREN
    spec = {
        "workload": name, "seed": seed, "smoke": smoke, "trace": trace,
        "budget_s": 0.0 if smoke else seconds / nchildren,
        "min_repeats": 1 if smoke else MIN_REPEATS,
        "reference": reference,
    }
    calib_before = calibrate()
    children, setups, errors = [], [], []
    for _ in range(nchildren):
        spawned, result, stderr = _run_child(spec, timeout=seconds + 120.0)
        if result is None:
            errors.append(stderr.strip()[-2000:])
            continue
        children.append(result)
        if not trace:
            # From spawn to the first timed repeat.
            setups.append((result["ready_at"] - spawned, result["setup_scale"]))
    calib_after = calibrate()

    repeats = [r for c in children for r in c["repeats"]]
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    if errors:  # a child that died is at least one failed operation
        attempted += len(errors)
        failed += len(errors)
    record: dict[str, Any] = {
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0 and bool(repeats),
        "attempted": max(1, attempted),
        "failed": failed,
        "mismatches": sorted({m for c in children for m in c["mismatches"]}),
        "errors": errors + [r["error"] for r in repeats if "error" in r],
        "calib_ms": {"before": calib_before * 1e3, "after": calib_after * 1e3},
        "noisy": abs(calib_after - calib_before)
        > NOISY_SHARE * min(calib_before, calib_after),
        "digest": children[0]["digest"] if children else None,
        "numpy": children[0]["numpy"] if children else None,
    }
    if trace:
        record["metrics"] = children[0]["layer_metrics"] if children else {}
        record["trace_file"] = children[0]["trace_file"] if children else None
    else:
        record.update(_end_to_end(children, setups))
    return record


def _end_to_end(
    children: list[dict[str, Any]], setups: list[tuple[float, float]]
) -> dict[str, Any]:
    """End-to-end metrics of an untraced run from its children's repeats.

    ``setups`` holds (raw seconds, host scale) per child.
    """
    timed = [r for c in children for r in c["repeats"] if "wall_s" in r]
    if not timed:
        return {"metrics": {}, "detail": {}}
    scales = [r["host_scale"] for r in timed]
    walls = [rep["wall_s"] * k for rep, k in zip(timed, scales)]
    ops = [ms * k for rep, k in zip(timed, scales) for ms in rep["ops_ms"]]
    wall = statistics.median(walls)
    sim_times = {r["sim_time_per_step_s"] for r in timed if "sim_time_per_step_s" in r}
    return {
        "metrics": {
            "setup_s": statistics.median(raw * k for raw, k in setups),
            "wall_s": wall,
            "steps_per_s": timed[0]["steps"] / wall,
            "op_ms_p50": statistics.median(ops) if ops else wall * 1e3,
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        },
        "detail": {
            "wall_s": summary(walls),
            "wall_raw_s": [r["wall_s"] for r in timed],
            "host_scale": scales,
            "setup_raw_s": [raw for raw, _ in setups],
            "op_ms": summary(ops),
            "op_raw_ms": summary([ms for rep in timed for ms in rep["ops_ms"]]),
            # Deterministic on the simulator: one value, bit-equal on
            # every repeat of every run, or the list shows the drift.
            "sim_time_per_step_s": sorted(sim_times),
        },
    }


# ----------------------------------------------------------------------
# reporting


def _provenance(args: argparse.Namespace) -> dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "smoke": args.smoke,
        "children_per_run": 1 if args.smoke else CHILDREN,
    }


def _units(contract: dict[str, Any]) -> dict[str, str]:
    return {
        m["name"]: m["unit"]
        for m in contract["end_to_end"] + contract["per_layer"]
    }


def _contract_line(record: dict[str, Any], units: dict[str, str]) -> dict[str, Any]:
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in record["metrics"].items()
        },
    }


def _print_record(name: str, record: dict[str, Any], units: dict[str, str]) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    flags = " NOISY" if record["noisy"] else ""
    print(
        f"== {name}  seed={record['seed']}  {kind}  "
        f"attempted={record['attempted']} failed={record['failed']}{flags}"
    )
    for metric, value in record["metrics"].items():
        print(f"  {metric:36s} {value:16.6f} {units[metric]}")
    detail = record.get("detail", {}).get("wall_s")
    if detail:
        print(
            "  wall_s repeats: n={n} min={min:.4f} q1={q1:.4f} median={median:.4f} "
            "q3={q3:.4f} max={max:.4f}".format(**detail)
        )
    for problem in record["mismatches"] + record["errors"]:
        print(f"  ! {problem}")


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(
            f"benchmarks.perf: {ROOT} is not a checkout of the repository "
            "(src/repro or BENCHMARK.json missing)", file=sys.stderr,
        )
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]

    ap = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__)
    ap.add_argument("--workload", choices=names, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=contract["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced pass (per-layer metrics) instead")
    ap.add_argument("--traced", action="store_true",
                    help="the untraced runs and then the traced pass")
    ap.add_argument("--runs", type=int, default=1,
                    help="untraced runs per workload, at consecutive seeds")
    ap.add_argument("--smoke", action="store_true",
                    help="one child, one repeat, shrunken knobs (self-tests)")
    ap.add_argument("--reference", help="alternative reference.json")
    ap.add_argument("--write-reference", action="store_true",
                    help="record this invocation's digests in reference.json")
    ap.add_argument("--out", help="result file (default under benchmarks/perf/out/)")
    args = ap.parse_args(argv)

    units = _units(contract)
    selected = [args.workload] if args.workload else names
    passes = [False, True] if args.traced else [bool(args.trace)]
    result: dict[str, Any] = {
        "schema": SCHEMA,
        "provenance": _provenance(args),
        "bounds": {m["name"]: m["bound"] for m in contract["end_to_end"]},
        "workloads": {},
    }
    why = {w["name"]: w["why"] for w in contract["workloads"]}
    records = []
    for name in selected:
        entry = result["workloads"][name] = {
            "why": why[name],
            # Seedless workloads get the same inputs at every --seed.
            "seeded": WORKLOADS[name].seeded,
            "runs": [],
        }
        for trace in passes:
            for k in range(1 if trace else args.runs):
                record = run_workload(
                    name, args.seed + k, args.seconds, trace, args.smoke,
                    args.reference,
                )
                _print_record(name, record, units)
                records.append(record)
                if trace:
                    entry["traced"] = record
                else:
                    entry["runs"].append(record)
    result["provenance"]["numpy"] = next(
        (r["numpy"] for r in records if r["numpy"]), None
    )

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = Path(args.out) if args.out else OUT_DIR / (
        f"result_{result['provenance']['git_sha'][:12]}_seed{args.seed}.json"
    )
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"result written to {out}")

    if args.write_reference:
        table = json.loads(REFERENCE.read_text())
        for name, entry in result["workloads"].items():
            if entry["runs"] and entry["runs"][0]["digest"]:
                table["smoke" if args.smoke else "full"][name] = {
                    "seed": args.seed if entry["seeded"] else None,
                    "sha256": entry["runs"][0]["digest"],
                }
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"digests written to {REFERENCE}")

    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        last = _contract_line(records[0], units)
    else:
        last = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "result_file": str(out),
        }
    print(json.dumps(last))
    return 0 if correct else 1
