"""Self-tests of the benchmark (``python -m pytest benchmarks/perf -q``).

Not part of the tier-1 suite (``testpaths = ["tests"]``).  The
end-to-end tests drive the real command in ``--smoke`` mode: one child,
one repeat, shrunken knobs.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.perf import ROOT

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from benchmarks.perf import compare, layers, stats  # noqa: E402
from benchmarks.perf.spans import (  # noqa: E402
    CALLS, RESUMES, SELF_NS, TOTAL_NS, Recorder, self_times,
)
from benchmarks.perf.workloads import (  # noqa: E402
    WORKLOADS, debris_scenario, serve_jobs,
)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def last_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# the contract


def test_contract_names_and_layers_agree():
    for group in ("workloads", "end_to_end", "per_layer"):
        for item in CONTRACT[group]:
            assert NAME.match(item["name"]), item["name"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == layers.UNITS
    assert set(layers.EXACT["metrics"]) <= set(layers.UNITS)
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in CONTRACT["end_to_end"]
    )


@pytest.fixture(scope="module")
def smoke_all(tmp_path_factory):
    """Every workload once, untraced then traced, through the command."""
    out = tmp_path_factory.mktemp("perfbench") / "result.json"
    proc = bench("--smoke", "--traced", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc, json.loads(out.read_text())


def test_every_workload_and_metric_is_reported_with_its_unit(smoke_all):
    proc, result = smoke_all
    assert set(result["workloads"]) == {w["name"] for w in CONTRACT["workloads"]}
    for group, key in (("end_to_end", "runs"), ("per_layer", "traced")):
        for name, entry in result["workloads"].items():
            record = entry[key][0] if key == "runs" else entry[key]
            assert record["correct"] and record["failed"] == 0, (name, record)
            assert set(record["metrics"]) == {m["name"] for m in CONTRACT[group]}
        for m in CONTRACT[group]:
            # "  <name>   <value> <unit>" once per workload.
            rows = re.findall(
                rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$",
                proc.stdout, re.M,
            )
            assert len(rows) == len(CONTRACT["workloads"]), m["name"]
    for m in CONTRACT["end_to_end"]:
        for name, entry in result["workloads"].items():
            assert entry["runs"][0]["metrics"][m["name"]] > 0, (name, m["name"])


def test_result_carries_provenance_and_noise_guard(smoke_all):
    _, result = smoke_all
    for key in ("nproc", "loadavg", "python", "numpy", "git_sha", "seed", "runs"):
        assert key in result["provenance"]
    for entry in result["workloads"].values():
        run = entry["runs"][0]
        assert run["calib_ms"]["before"] > 0 and run["calib_ms"]["after"] > 0
        assert isinstance(run["noisy"], bool)
    seeded = {n for n, e in result["workloads"].items() if e["seeded"]}
    assert seeded == {"offbody-debris", "serve-mix"}


def test_traced_pass_shows_the_layer_contrast(smoke_all):
    _, result = smoke_all
    layer = {n: e["traced"]["metrics"] for n, e in result["workloads"].items()}
    assert layer["sim-store"]["machine.sched_self_s"] > 0
    assert layer["mp-airfoil"]["machine.sched_self_s"] == 0
    assert layer["mp-airfoil"]["backend.comm_s"] > 0
    assert layer["mp-airfoil"]["backend.pingpong_us"] > 0
    for name in ("obs.tracer_s", "obs.store_read_s", "analysis.sanitizer_s"):
        assert layer["sim-store"][name] == 0
        assert layer["sim-store-traced"][name] > 0
    assert layer["offbody-debris"]["offbody.regen_s"] > 0
    assert layer["serve-mix"]["serve.hit_job_ms_p50"] > 0
    # The same physics with and without the tracer.
    for name in layers.EXACT["metrics"]:
        if not name.startswith(("obs.", "analysis.")):
            assert layer["sim-store"][name] == layer["sim-store-traced"][name], name


def test_single_run_prints_the_contract_object_last():
    proc = bench("--workload", "sim-deltawing", "--smoke", "--seed", "12",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    obj = last_line(proc)
    assert set(obj) == {"correct", "attempted", "failed", "metrics"}
    assert obj["correct"] is True and obj["attempted"] >= 1 and obj["failed"] == 0
    assert set(obj["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    for m in CONTRACT["end_to_end"]:
        assert set(obj["metrics"][m["name"]]) == {"value", "unit"}
        assert obj["metrics"][m["name"]]["unit"] == m["unit"]


def test_corrupted_reference_fails_the_run(tmp_path):
    table = json.loads((ROOT / "benchmarks/perf/reference.json").read_text())
    table["smoke"]["sim-deltawing"]["sha256"] = "0" * 64
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(table))
    proc = bench("--workload", "sim-deltawing", "--smoke", "--reference", str(bad))
    assert proc.returncode != 0
    obj = last_line(proc)
    assert obj["correct"] is False and obj["failed"] > 0
    assert "reference" in proc.stdout


def test_not_a_checkout_exits_nonzero_without_a_result(tmp_path):
    """Only ``BENCHMARK.json`` and the benchmark's own directory."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks/perf", tmp_path / "benchmarks/perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--workload", "sim-store",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# seeds


def test_seed_changes_only_the_seeded_workloads():
    assert debris_scenario(11, True) != debris_scenario(12, True)
    assert debris_scenario(11, True) == debris_scenario(11, True)
    a, b = serve_jobs(11, False), serve_jobs(12, False)
    assert [j.sha() for j in a] != [j.sha() for j in b]
    assert [j.sha() for j in a] == [j.sha() for j in serve_jobs(11, False)]
    # Fixed combinations: the seed moves no work between batches.
    work = lambda jobs: sorted((j.nodes, j.nsteps, j.scale) for j in jobs)  # noqa: E731
    assert work(a) == work(b)
    assert not {j.f0 for j in a} & {j.f0 for j in b}
    assert len(a) == 60 and len({j.sha() for j in a}) == 24 + 4
    for cls in WORKLOADS.values():
        if not cls.seeded:
            one, two = cls(11, True), cls(12, True)
            one.setup(), two.setup()
            try:
                assert one.cfg.total_gridpoints == two.cfg.total_gridpoints
                assert one.cfg.nsteps == two.cfg.nsteps
                assert one.cfg.machine == two.cfg.machine
            finally:
                one.teardown(), two.teardown()


# ----------------------------------------------------------------------
# tracing machinery


def _module_attributes() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and name.startswith("repro")
        for attr, value in list(vars(mod).items())
    } | {
        (f"{cls.__module__}.{cls.__qualname__}", attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and name.startswith("repro")
        for cls in list(vars(mod).values())
        if isinstance(cls, type) and cls.__module__.startswith("repro")
        for attr, value in list(vars(cls).items())
    }


def test_wrappers_are_fully_removed():
    import repro.connectivity.dcf as dcf
    from repro.machine.simmpi import Comm

    rec = Recorder()
    patcher = layers.install(rec)  # imports every patched module
    patcher.undo()
    before = _module_attributes()
    patcher = layers.install(rec)
    assert getattr(dcf.donor_search, "__wrapped_by_perfbench__", False)
    assert getattr(Comm.send, "__wrapped_by_perfbench__", False)
    patcher.undo()
    after = _module_attributes()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []
    assert not any(
        getattr(v, "__wrapped_by_perfbench__", False) for v in after.values()
    )


def test_timed_generator_preserves_return_throw_and_close():
    rec = Recorder()
    log = []

    def inner(x):
        try:
            got = yield x
            try:
                yield got * 2
            except KeyError:
                yield "caught"
        finally:
            log.append("closed")
        return "done"

    returned = []
    wrapped = rec.timed_generator("inner", inner, on_return=returned.append)

    def outer():
        value = yield from wrapped(1)
        return value

    gen = outer()
    assert next(gen) == 1
    assert gen.send(21) == 42
    assert gen.throw(KeyError) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done" and returned == ["done"]
    assert rec.agg["inner"][CALLS] == 1 and rec.agg["inner"][RESUMES] == 4

    gen = wrapped(5)
    assert next(gen) == 5
    gen.close()
    assert log == ["closed", "closed"]

    def boom():
        raise ValueError("x")
        yield

    with pytest.raises(ValueError):
        next(rec.timed_generator("boom", boom)())
    assert rec._stack == []


def test_self_time_arithmetic():
    spans = [
        {"id": 0, "parent": None, "name": "root", "start_ns": 0, "end_ns": 100},
        {"id": 1, "parent": 0, "name": "a", "start_ns": 10, "end_ns": 40},
        {"id": 2, "parent": 0, "name": "b", "start_ns": 50, "end_ns": 90},
        {"id": 3, "parent": 2, "name": "c", "start_ns": 60, "end_ns": 75},
    ]
    assert self_times(spans) == {0: 30, 1: 30, 2: 25, 3: 15}

    # The same arithmetic as the wrappers keep it, on real nesting.
    rec = Recorder()
    leaf = rec.timed("leaf", lambda: sum(range(2000)))
    mid = rec.timed("mid", lambda: (leaf(), leaf()), keep=True)
    top = rec.timed("top", lambda: (mid(), leaf()), keep=True)
    top()
    agg = rec.agg
    assert agg["leaf"][CALLS] == 3 and agg["mid"][CALLS] == 1
    assert agg["leaf"][SELF_NS] == agg["leaf"][TOTAL_NS]
    assert agg["top"][TOTAL_NS] == sum(e[SELF_NS] for e in agg.values())
    assert [s["name"] for s in rec.spans] == ["top", "mid"]
    assert rec.spans[1]["parent"] == rec.spans[0]["id"]
    kept = self_times(rec.spans)
    assert kept[0] == rec.spans[0]["end_ns"] - rec.spans[0]["start_ns"] - (
        rec.spans[1]["end_ns"] - rec.spans[1]["start_ns"]
    )

    other = Recorder()
    other.merge(rec.snapshot())
    other.merge(rec.snapshot())
    assert other.agg["leaf"][CALLS] == 6


# ----------------------------------------------------------------------
# statistics and verdicts


def test_host_speed_sampler_samples_and_restores():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = stats.HostSpeedSampler()
    with sampler:
        deadline = time.perf_counter() + 0.25
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 3
    assert 0.2 < sampler.scale < 2.0
    with sampler:  # entering again adds to the same samples
        pass
    assert len(sampler.samples) >= 3
    with stats.HostSpeedSampler() as short:  # shorter than one interval
        pass
    assert len(short.samples) == 1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_order_statistics():
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert stats.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert stats.summary([1.0, 2.0, 3.0, 4.0, 5.0])["median"] == 3.0


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    judge = compare.judge
    assert judge(base, base, "lower", 0.1, False)[0] == "unchanged"
    assert judge(base, [v * 1.2 for v in base], "lower", 0.1, False)[0] == "regressed"
    assert judge(base, [v * 0.8 for v in base], "lower", 0.1, True)[0] == "improved"
    assert judge(base, [v * 0.8 for v in base], "higher", 0.1, False)[0] == "regressed"
    wide = [1.0, 1.4, 0.7, 1.3, 0.8, 1.0, 1.5, 0.6, 1.1, 0.9]
    assert judge(wide, wide, "lower", 0.1, False)[0] == "unresolved"
    # A spread wider than the bound is still resolved by a clean sweep.
    assert judge(wide, [v * 0.3 for v in wide], "lower", 0.1, False)[0] == "improved"
    # With --pairs a better median that loses pairs is not a gain.
    b = [0.9, 1.1, 0.9, 1.1, 0.9, 1.1, 0.9, 0.9, 0.9, 0.9]
    assert judge(base, b, "lower", 0.25, True)[0] == "unchanged"
