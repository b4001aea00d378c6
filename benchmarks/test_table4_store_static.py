"""Table 4 / Figure 10: finned-store separation, static load balancing.

Paper (SP2 / SP, 16-61 nodes, 0.81M points over 16 grids, IGBP ratio
66e-3 — 1.5-2x the other cases):

* %time in DCF3D is noticeably higher than the other two cases (17-34%
  SP2) because of the larger IGBP share;
* Mflops/node *improves* from 16 to ~28 nodes — "the problem is
  achieving a better degree of static load balance by increasing the
  number of processors" (16 grids cannot balance on 16 nodes) — then
  flattens;
* overall speedup reaches ~7.6 (SP2) / 8.3 (SP) at 61 nodes, with
  DCF3D scaling worse than OVERFLOW (Fig. 10).
"""

import pytest

from benchmarks._harness import bench_scale, emit, emit_csv, run_sweep, table_text
from repro.cases import store_case
from repro.machine import sp, sp2

NODE_COUNTS = [16, 18, 22, 28, 35, 42, 52, 61]
SCALE = bench_scale(1.0)
NSTEPS = 4


@pytest.fixture(scope="module")
def sweeps():
    out = {}
    for name, machine_fn in (("SP2", sp2), ("SP", sp)):
        runs, total = run_sweep(
            store_case, machine_fn, NODE_COUNTS, SCALE, NSTEPS
        )
        out[name] = table_text(runs, total)
    return out


@pytest.mark.benchmark(group="table4")
def test_table4_store_static(benchmark, sweeps):
    def report():
        for name, (table, text) in sweeps.items():
            emit(f"table4_{name.lower()}", text)
            emit_csv(f"figure10_{name.lower()}", table)
        return sweeps

    result = benchmark.pedantic(report, rounds=1, iterations=1)
    for name, (table, _) in result.items():
        rows = table.rows
        speedups = [r["speedup"] for r in rows]
        # Strong scaling 16 -> 61 nodes (paper: ~7.6x from the 16-node
        # base; ideal 3.8x in node ratio — superlinear because 16
        # nodes cannot balance 16 unequal grids).
        assert speedups[-1] > 2.5
        assert speedups == sorted(speedups)
        # Mflops/node improves from 16 nodes to the mid-20s range.
        mf = [r["mflops/node"] for r in rows]
        assert max(mf[1:4]) > mf[0]
        benchmark.extra_info[f"{name}_mflops"] = [round(v, 1) for v in mf]
        benchmark.extra_info[f"{name}_pct_dcf3d"] = [
            round(r["%dcf3d"], 1) for r in rows
        ]


@pytest.mark.benchmark(group="table4")
def test_figure10_module_speedups(benchmark, sweeps):
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


@pytest.mark.benchmark(group="table4")
def test_store_dcf_share_exceeds_other_cases(benchmark, sweeps):
    """The paper's motivation for Table 5: this case's connectivity
    share is the largest of the three problems."""

    def shares():
        return [r["%dcf3d"] for r in sweeps["SP2"][0].rows]

    pct = benchmark.pedantic(shares, rounds=1, iterations=1)
    # Table 1/3 measured ~10-16% at their base partitions; the store
    # case starts higher and grows past 20%.
    assert max(pct) > 20.0
