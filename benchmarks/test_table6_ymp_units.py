"""Table 6: wall-clock speedup over a single-processor Cray YMP/864.

Paper: the store case's run time on n SP2/SP nodes versus one YMP
processor, in "YMP units".  Findings:

* one to two orders of magnitude overall speedup (9.4 -> 43 on the
  SP2, 18.5 -> 75 on the SP from 18 to 61 nodes);
* per-node performance is a significant fraction of the YMP: ~0.5-0.7
  YMP units per SP2 node, ~1.0-1.2 per SP node, roughly flat across
  partitions.
"""

import pytest

from benchmarks._harness import bench_scale, emit
from repro.cases import store_case
from repro.core import OverflowD1, serial_time_per_step
from repro.machine import cray_ymp, sp, sp2

NODE_COUNTS = [18, 28, 42, 61]
SCALE = bench_scale(1.0)
NSTEPS = 4


def ymp_units():
    """``(ymp_time, rows)``: one YMP processor's time per step and, per
    node count, SP2/SP YMP units overall and per node."""
    # The paper's YMP numbers come from the *serial* vectorised code:
    # one processor, no communication.
    ymp_cfg = store_case(machine=cray_ymp(), scale=SCALE, nsteps=NSTEPS)
    ymp_time = serial_time_per_step(ymp_cfg)
    rows = []
    for nodes in NODE_COUNTS:
        row = {"nodes": nodes}
        for name, machine_fn in (("SP2", sp2), ("SP", sp)):
            cfg = store_case(machine=machine_fn(nodes=nodes), scale=SCALE,
                             nsteps=NSTEPS)
            t = OverflowD1(cfg).run().time_per_step
            row[name] = ymp_time / t           # overall YMP units
            row[f"{name}/node"] = ymp_time / t / nodes
        rows.append(row)
    return ymp_time, rows


@pytest.fixture(scope="module")
def ymp_comparison():
    return ymp_units()


@pytest.mark.benchmark(group="table6")
def test_table6_ymp_units(benchmark, ymp_comparison):
    ymp_time, rows = ymp_comparison

    def report():
        lines = [
            f"1-cpu Cray YMP/864 time/step: {ymp_time:.4f} s",
            f"{'nodes':>6} {'SP2':>8} {'SP':>8} {'SP2/node':>9} {'SP/node':>8}",
        ]
        for r in rows:
            lines.append(
                f"{r['nodes']:>6d} {r['SP2']:>8.1f} {r['SP']:>8.1f} "
                f"{r['SP2/node']:>9.2f} {r['SP/node']:>8.2f}"
            )
        emit("table6_ymp_units", "\n".join(lines))
        return rows

    rows = benchmark.pedantic(report, rounds=1, iterations=1)

    # One to two orders of magnitude overall (paper: 9.4 -> 75).
    assert rows[0]["SP2"] > 3.0
    assert rows[-1]["SP"] > rows[-1]["SP2"] > rows[0]["SP2"]
    assert rows[-1]["SP"] < 200.0
    # Per-node: SP node ~ a YMP processor, SP2 node ~ half of one
    # (paper: 0.52-0.71 and 1.03-1.23).
    for r in rows:
        assert 0.2 < r["SP2/node"] < 1.2
        assert 0.4 < r["SP/node"] < 2.2
        assert r["SP/node"] > r["SP2/node"]
    benchmark.extra_info["overall_sp2"] = [round(r["SP2"], 1) for r in rows]
    benchmark.extra_info["overall_sp"] = [round(r["SP"], 1) for r in rows]
