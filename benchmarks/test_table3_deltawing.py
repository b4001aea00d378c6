"""Table 3 / Figure 7: descending delta wing parallel performance.

Paper (SP2 / SP, 7-55 nodes, ~1M points, IGBP ratio 33e-3, static LB):

* the method scales well: speedup 1 -> 6.3 (SP2) / 7.1 (SP) over
  7 -> 55 nodes with only a small Mflops/node dropoff;
* %time in DCF3D grows with node count (9% -> 15% SP2) but stays a
  relatively low share;
* DCF3D's own speedup is again worse than OVERFLOW's (Fig. 7).

Benchmark default scale 1.0 (~1.07M points), the paper's problem
size; ``REPRO_BENCH_SCALE`` overrides it for quick runs.
"""

import pytest

from benchmarks._harness import bench_scale, emit, emit_csv, run_sweep, table_text
from repro.cases import deltawing_case
from repro.machine import sp, sp2

NODE_COUNTS = [7, 12, 26, 55]
SCALE = bench_scale(1.0)
NSTEPS = 4


@pytest.fixture(scope="module")
def sweeps():
    out = {}
    for name, machine_fn in (("SP2", sp2), ("SP", sp)):
        runs, total = run_sweep(
            deltawing_case, machine_fn, NODE_COUNTS, SCALE, NSTEPS
        )
        out[name] = table_text(runs, total)
    return out


@pytest.mark.benchmark(group="table3")
def test_table3_deltawing(benchmark, sweeps):
    def report():
        for name, (table, text) in sweeps.items():
            emit(f"table3_{name.lower()}", text)
            emit_csv(f"figure7_{name.lower()}", table)
        return sweeps

    result = benchmark.pedantic(report, rounds=1, iterations=1)
    for name, (table, _) in result.items():
        rows = table.rows
        speedups = [r["speedup"] for r in rows]
        # Monotone scaling to large node counts (paper: 1 -> ~6-7).
        assert speedups == sorted(speedups)
        assert speedups[-1] > 3.0
        # %DCF3D grows from the smallest to the largest partition.
        assert rows[-1]["%dcf3d"] > rows[0]["%dcf3d"]
        benchmark.extra_info[f"{name}_speedups"] = [
            round(s, 2) for s in speedups
        ]


@pytest.mark.benchmark(group="table3")
def test_figure7_module_speedups(benchmark, sweeps):
    def series():
        return {
            name: [
                (r["nodes"], r["speedup_overflow"], r["speedup_dcf3d"])
                for r in table.rows
            ]
            for name, (table, _) in sweeps.items()
        }

    result = benchmark.pedantic(series, rounds=1, iterations=1)
    for name, rows in result.items():
        _, flow_top, dcf_top = rows[-1]
        assert flow_top > dcf_top
