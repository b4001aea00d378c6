"""``python -m benchmarks.perf.compare A.json B.json``: judge B against A.

Each file is a result JSON of ``python -m benchmarks.perf --runs N``
(A the parent commit, B the change; for an A/A check, two sets of the
same commit).  One row per workload and end-to-end metric: both
medians with quartiles and run counts, B's median as a ratio of A's
(the base is always A), the bound fixed in ``BENCHMARK.json`` and a
verdict:

``regressed``
    B's median is worse than A's by more than the bound.
``unresolved``
    the run-to-run spread (interquartile distance over the median, the
    wider of the two sets) exceeds the bound, so the medians cannot be
    told apart — unless every B run beats every A run.
``improved``
    B's median is better by more than the distance between A's own
    quartiles; with ``--pairs`` B must also win at least nine tenths of
    the pairs (run *i* of A against run *i* of B — same seed — ties
    counting for neither).
``unchanged``
    none of the above.

Below the table, what must be bit-equal between the two sets is
checked: physics digests, ``sim_time_per_step_s`` and the exact counts
of the traced pass on the simulated workloads.  Exit code 1 when
anything regressed or an exact value differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from benchmarks.perf.cli import load_contract
from benchmarks.perf.layers import EXACT
from benchmarks.perf.stats import quartiles, spread


def _worse_by(a: float, b: float, better: str) -> float:
    """Share of A's value by which B is worse (negative: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def judge(
    a: list[float], b: list[float], better: str, bound: float, pairs: bool
) -> tuple[str, dict[str, Any]]:
    """Verdict for one workload x metric, with the numbers behind it."""
    qa, qb = quartiles(a), quartiles(b)
    worse = _worse_by(qa[1], qb[1], better)
    beats = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
    clean_sweep = all(beats(y, x) for x in a for y in b)
    wins = sum(beats(y, x) for x, y in zip(a, b))
    losses = sum(beats(x, y) for x, y in zip(a, b))
    numbers = {
        "a": qa, "b": qb, "ratio": qb[1] / qa[1], "worse_by": worse,
        "spread": max(spread(a), spread(b)), "wins": wins, "losses": losses,
        "pairs": min(len(a), len(b)),
    }
    if numbers["spread"] > bound and not clean_sweep:
        return "unresolved", numbers
    if worse > bound:
        return "regressed", numbers
    gain = abs(qb[1] - qa[1]) > (qa[2] - qa[0]) and worse < 0
    if pairs:
        gain = gain and wins >= 0.9 * numbers["pairs"]
    if gain or (clean_sweep and worse < 0):
        return "improved", numbers
    return "unchanged", numbers


def _values(entry: dict[str, Any], metric: str) -> list[float]:
    return [
        run["metrics"][metric] for run in entry["runs"]
        if metric in run.get("metrics", {})
    ]


def _exact_differences(name: str, a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """Names of values that must be bit-equal between the sets and are not."""
    out = []
    for run_a, run_b in zip(a["runs"], b["runs"]):
        if run_a["seed"] != run_b["seed"]:
            continue
        if run_a["digest"] != run_b["digest"]:
            out.append(f"physics digest (seed {run_a['seed']})")
        sim_a = run_a.get("detail", {}).get("sim_time_per_step_s")
        sim_b = run_b.get("detail", {}).get("sim_time_per_step_s")
        if sim_a != sim_b or (sim_a and len(sim_a) != 1):
            out.append(f"sim_time_per_step_s (seed {run_a['seed']}): {sim_a} vs {sim_b}")
    if "traced" in a and "traced" in b and name in EXACT["workloads"]:
        ta, tb = a["traced"]["metrics"], b["traced"]["metrics"]
        out += [
            f"{m}: {ta.get(m)} vs {tb.get(m)}"
            for m in EXACT["metrics"] if ta.get(m) != tb.get(m)
        ]
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.compare", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("a", help="result JSON of the parent (the base of every ratio)")
    ap.add_argument("b", help="result JSON of the change")
    ap.add_argument("--pairs", action="store_true",
                    help="an improvement must also win nine tenths of the pairs")
    args = ap.parse_args(argv)
    with open(args.a) as fh:
        res_a = json.load(fh)
    with open(args.b) as fh:
        res_b = json.load(fh)
    metrics = load_contract()["end_to_end"]

    print(
        f"A = {args.a} ({res_a['provenance']['git_sha'][:12]}), "
        f"B = {args.b} ({res_b['provenance']['git_sha'][:12]}); "
        "medians [q1, q3] over n runs; ratio = B median / A median"
    )
    header = (
        f"{'workload':18s} {'metric':12s} {'A median [q1, q3] n':>34s} "
        f"{'B median [q1, q3] n':>34s} {'B/A':>7s} {'bound':>6s}  verdict"
    )
    print(header)
    print("-" * len(header))
    verdicts: dict[str, int] = {}
    inexact: list[str] = []
    for name in res_a["workloads"]:
        if name not in res_b["workloads"]:
            continue
        ea, eb = res_a["workloads"][name], res_b["workloads"][name]
        for m in metrics:
            a, b = _values(ea, m["name"]), _values(eb, m["name"])
            if not a or not b:
                continue
            verdict, n = judge(a, b, m["better"], m["bound"], args.pairs)
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            cells = [
                f"{q[1]:12.4f} [{q[0]:.4f}, {q[2]:.4f}] {len(v):2d}"
                for q, v in ((n["a"], a), (n["b"], b))
            ]
            extra = f"  ({n['wins']}/{n['pairs']} pairs won)" if args.pairs else ""
            print(
                f"{name:18s} {m['name']:12s} {cells[0]:>34s} {cells[1]:>34s} "
                f"{n['ratio']:7.3f} {m['bound']:6.2f}  {verdict}{extra}"
            )
        inexact += [f"{name}: {d}" for d in _exact_differences(name, ea, eb)]
    print(", ".join(f"{k}: {v}" for k, v in sorted(verdicts.items())))
    if inexact:
        print("exact values that differ between the sets:")
        for line in inexact:
            print(f"  {line}")
    else:
        print("exact values (digests, sim_time_per_step_s, traced counts): bit-equal")
    return 1 if verdicts.get("regressed") or inexact else 0


if __name__ == "__main__":
    sys.exit(main())
