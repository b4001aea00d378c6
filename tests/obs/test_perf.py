"""Performance-observatory tests (critical path, comm matrix, bench,
trace-diff, hook batching).

The determinism claims are load-bearing: the CI perf gate compares
canonical BENCH JSON byte-for-byte (simulated section), so these tests
assert bit-identical re-emission, zero-diff on identical runs, and the
losslessness of the batched sanitizer hooks.
"""

import json
import math

import pytest

from repro.analysis import Sanitizer
from repro.core import OverflowD1
from repro.machine import sp2
from repro.machine.scheduler import Simulator
from repro.obs import SpanTracer
from repro.obs.perf import (
    BENCH_CASES,
    BENCH_SCHEMA,
    CommMatrix,
    analyze_critical_path,
    bench_payload,
    canonical_json,
    diff_bench,
    diff_files,
    write_bench,
)
from repro.obs.perf.bench import config_sha


def x38_quick_payload(**kw):
    kw.setdefault("quick", True)
    return bench_payload("x38", **kw)


@pytest.fixture(scope="module")
def payload():
    return x38_quick_payload()


def x38_quick_case():
    from repro.cases import build_case

    knobs = BENCH_CASES["x38"].knobs(quick=True)
    return build_case(
        "x38", machine=sp2(nodes=knobs["nodes"]), scale=knobs["scale"],
        nsteps=knobs["nsteps"],
    )


@pytest.fixture(scope="module")
def traced_x38():
    """One traced x38 quick run: (run, tracer)."""
    tracer = SpanTracer()
    run = OverflowD1(x38_quick_case(), tracer=tracer).run()
    return run, tracer


# ----------------------------------------------------------------------
# canonical JSON


class TestCanonicalJson:
    def test_byte_stable_and_sorted(self):
        a = canonical_json({"b": 1, "a": [1, 2, (3, 4)]})
        b = canonical_json({"a": [1, 2, [3, 4]], "b": 1})
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a) == {"a": [1, 2, [3, 4]], "b": 1}

    def test_non_finite_floats_stringed(self):
        blob = canonical_json({"x": math.inf, "y": -math.inf, "z": math.nan})
        assert json.loads(blob) == {"x": "inf", "y": "-inf", "z": "nan"}

    def test_numpy_scalars(self):
        np = pytest.importorskip("numpy")
        blob = canonical_json({"i": np.int64(3), "f": np.float64(0.5)})
        assert json.loads(blob) == {"i": 3, "f": 0.5}

    def test_config_sha_is_stable(self):
        cfg = {"case": "x38", "nodes": 6}
        assert config_sha(cfg) == config_sha(dict(reversed(list(cfg.items()))))
        assert config_sha(cfg) != config_sha({"case": "x38", "nodes": 8})


# ----------------------------------------------------------------------
# comm matrix


class _FakeTracer:
    def __init__(self, nranks, sends):
        self.nranks = nranks
        self.sends = sends


class TestCommMatrix:
    def test_add_and_totals(self):
        m = CommMatrix(3)
        m.add(0, 1, 100, "overflow")
        m.add(0, 1, 100, "overflow")
        m.add(2, 0, 7, "dcf3d")
        assert m.total_bytes == 207
        assert m.total_messages == 3
        assert m.phases() == ["overflow", "dcf3d"]
        assert m.bytes_matrix("overflow")[0, 1] == 200
        assert m.msgs_matrix()[2, 0] == 1
        assert m.bytes_matrix("nope").sum() == 0

    def test_hot_edges_deterministic(self):
        m = CommMatrix(4)
        m.add(1, 2, 50, "p")
        m.add(0, 3, 50, "p")  # same bytes/msgs: ties break by (src, dst)
        m.add(2, 3, 900, "p")
        edges = m.hot_edges(k=3)
        assert [(e["src"], e["dst"]) for e in edges] == [(2, 3), (0, 3), (1, 2)]

    def test_from_tracer_and_to_dict(self):
        tr = _FakeTracer(2, [(0.0, 0, 1, 5, 64, "p"), (1.0, 1, 0, 5, 32, "p")])
        m = CommMatrix.from_tracer(tr)
        d = m.to_dict(top_k=1)
        assert d["nranks"] == 2
        assert d["total_bytes"] == 96
        assert d["phases"]["p"]["entries"] == [[0, 1, 1, 64], [1, 0, 1, 32]]
        assert len(d["hot_edges"]) == 1
        # to_dict is canonical-JSON clean.
        canonical_json(d)

    def test_format_small_matrix(self):
        m = CommMatrix(2)
        m.add(0, 1, 2048, "p")
        text = m.format()
        assert "comm matrix" in text and "hot edge" in text

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CommMatrix(0)


# ----------------------------------------------------------------------
# critical path


class TestCriticalPath:
    def test_x38_chain_shape(self, traced_x38):
        run, tracer = traced_x38
        cp = analyze_critical_path(tracer, igbp=run.igbp_rollup())
        assert cp.nranks == run.nprocs
        assert cp.nsteps == run.nsteps
        assert cp.phase_order == ("overflow", "motion", "dcf3d")
        # Barrier-separated chain: every in-cycle step contributes one
        # link per phase it ran, ordered by (step, phase position).
        keys = [(c.step, c.phase) for c in cp.chain]
        assert keys == sorted(
            keys, key=lambda k: (k[0], cp.phase_order.index(k[1]))
        )
        assert cp.chain_seconds > 0
        # Every step contributes one link per cyclic phase.
        assert len(cp.chain) == run.nsteps * len(cp.phase_order)
        # Spans of adjacent links overlap across barrier skew, so the
        # chain is an upper bound on the run (never shorter than the
        # slowest single link).
        assert cp.chain_seconds >= max(c.span for c in cp.chain)
        for link in cp.chain:
            assert link.t1 >= link.t0
            assert link.imbalance >= 1.0 - 1e-12
            assert 0 <= link.critical_rank < cp.nranks

    def test_slack_accounting_closes(self, traced_x38):
        run, tracer = traced_x38
        cp = analyze_critical_path(tracer)
        # Per rank, compute+comm+wait+barrier sums to the rank's share
        # of the chain spans it participated in — all non-negative.
        for r, s in cp.rank_slack.items():
            assert 0 <= r < cp.nranks
            for v in s.values():
                assert v >= -1e-12
        total_slack = sum(
            s["wait_s"] + s["barrier_s"] for s in cp.rank_slack.values()
        )
        assert total_slack >= 0

    def test_igbp_block_matches_rollup(self, traced_x38):
        run, tracer = traced_x38
        igbp = run.igbp_rollup()
        cp = analyze_critical_path(tracer, igbp=igbp)
        assert cp.igbp is not None
        assert cp.igbp["I"] == [int(v) for v in igbp.accumulated()]
        assert cp.igbp["f_max"] == pytest.approx(float(igbp.f().max()))

    def test_wait_blame_names_real_ranks(self, traced_x38):
        _run, tracer = traced_x38
        cp = analyze_critical_path(tracer)
        for _phase, blames in cp.wait_blame.items():
            for rank, seconds in blames:
                assert 0 <= rank < cp.nranks
                assert seconds > 0

    def test_deterministic_across_runs(self, traced_x38):
        _run, tracer = traced_x38
        tracer2 = SpanTracer()
        OverflowD1(x38_quick_case(), tracer=tracer2).run()
        a = analyze_critical_path(tracer)
        b = analyze_critical_path(tracer2)
        assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())
        assert a.chain == b.chain

    def test_format_and_to_dict(self, traced_x38):
        run, tracer = traced_x38
        cp = analyze_critical_path(tracer, igbp=run.igbp_rollup())
        text = cp.format()
        assert "critical path" in text and "IGBP imbalance" in text
        canonical_json(cp.to_dict())  # serialisable


    @pytest.mark.parametrize("case", ["debris", "store"])
    def test_dcf3d_links_start_at_their_steps_dcf3d_marks(self, case):
        """A step's closing zero-length barrier wait stays in that step.

        Ops are filed by recording order, not by comparing timestamps
        with phase marks, so no dcf3d link starts before any rank has
        entered dcf3d in that step, and no link is padded with another
        phase's time as barrier slack."""

        from repro.cases import build_case
        from repro.core import build_driver
        from repro.offbody import build_offbody_case, generate_scenario

        if case == "debris":
            target = build_offbody_case(
                generate_scenario("debris", 5, nbodies=3), nsteps=3, nodes=6
            )
        else:
            target = build_case(
                "store", machine=sp2(nodes=18), scale=0.05, nsteps=3, f0=2.0
            )
        tracer = SpanTracer()
        build_driver(target, tracer=tracer).run()
        step_of: dict[int, int] = {}
        first_dcf: dict[int, float] = {}
        for rank, t, name in tracer.phase_marks:
            if name == "overflow":
                step_of[rank] = step_of.get(rank, -1) + 1
            elif name == "dcf3d":
                step = step_of[rank]
                first_dcf[step] = min(first_dcf.get(step, t), t)
        cp = analyze_critical_path(tracer)
        dcf_links = [link for link in cp.chain if link.phase == "dcf3d"]
        assert [link.step for link in dcf_links] == [0, 1, 2]
        for link in dcf_links:
            assert link.t0 == first_dcf[link.step], link
        for link in cp.chain:
            assert link.barrier_total <= 0.01, link


# ----------------------------------------------------------------------
# hook batching


#: Message tag of the ring exchange below.
TAG_STORM = 7


def _storm_program(comm, messages: int, nbytes: int):
    """Message-heavy ring exchange: every rank sends ``messages``
    point-to-point messages, then receives as many (explicit source —
    wildcard-free, so the sanitizer stays clean)."""
    yield from comm.set_phase("storm")
    dst = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    for _ in range(messages):
        yield from comm.send(dst, TAG_STORM, None, nbytes=nbytes)
    for _ in range(messages):
        yield from comm.recv(src, TAG_STORM)
    return messages


class TestHookBatching:
    def test_sanitized_run_bit_identical_to_unsanitized(self):
        machine = sp2(nodes=4)
        results = {}
        for mode, san in (("plain", None), ("sanitized", Sanitizer())):
            tracer = SpanTracer()
            sim = Simulator(machine, tracer=tracer, sanitizer=san)
            sim.spawn_all(_storm_program, 20, 64)
            res = sim.run()
            results[mode] = (
                res.elapsed, tracer.ops, tracer.sends, tracer.recvs
            )
        assert results["plain"] == results["sanitized"]
        assert san.report().ok
        # One full on_send for the single (tag, phase) key; the other
        # 79 sends and all 80 receives are batched counter increments.
        assert san.messages_sent == san.messages_received == 80
        assert san.hook_calls < 80

    def test_tag_collision_found_and_totals_match_machine(self):
        # Two subsystems sharing one tag in one phase: the finding (a
        # src/dst collision profile) must survive batching because the
        # full hook still runs for the first message of each key.
        def prog(comm):
            phase = "a" if comm.rank == 0 else "b"
            yield from comm.set_phase(phase)
            if comm.rank < 2:
                for _ in range(3):
                    yield from comm.send(2, TAG_STORM, None, nbytes=8)
            else:
                for _ in range(3):
                    yield from comm.recv(0, TAG_STORM)
                    yield from comm.recv(1, TAG_STORM)
            return None

        san = Sanitizer()
        sim = Simulator(sp2(nodes=3), sanitizer=san)
        sim.spawn_all(prog)
        res = sim.run()
        assert [f.kind for f in san.report().findings] == ["tag-collision"]
        ranks = res.metrics.ranks
        assert san.messages_sent == sum(m.messages_sent for m in ranks) == 6
        assert san.messages_received == sum(
            m.messages_received for m in ranks
        ) == 6


# ----------------------------------------------------------------------
# bench payloads


class TestBenchPayload:
    def test_schema_and_required_sections(self, payload):
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["case"] == "x38"
        assert payload["quick"] is True
        sim = payload["simulated"]
        for key in (
            "elapsed_s", "time_per_step_s", "mflops_per_node", "pct_dcf3d",
            "nsteps", "nranks", "phases", "imbalance", "critical_path",
            "comm", "sanitizer", "partition_history",
        ):
            assert key in sim, key
        # The paper's f(p) = I(p)/Ibar series is present and consistent.
        imb = sim["imbalance"]
        assert len(imb["f"]) == sim["nranks"]
        assert imb["f_max"] == pytest.approx(max(imb["f"]))
        assert sim["sanitizer"]["ok"] is True

    def test_simulated_section_bit_identical(self, payload):
        again = x38_quick_payload()
        assert canonical_json(payload["simulated"]) == canonical_json(
            again["simulated"]
        )
        assert payload["config_sha"] == again["config_sha"]

    def test_round_trip_re_emits_identical_bytes(self, payload, tmp_path):
        path = write_bench(payload, tmp_path)
        assert path.name == "BENCH_x38.json"
        text = path.read_text()
        assert canonical_json(json.loads(text)) == text

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="unknown bench case"):
            bench_payload("nonsense")

    def test_payload_is_all_deterministic(self, payload):
        """No host section: nothing in a payload varies run to run."""
        assert sorted(payload) == [
            "case", "config", "config_sha", "quick", "schema", "simulated",
        ]

    def test_run_bench_writes_file(self, payload, tmp_path):
        path = write_bench(payload, tmp_path)
        assert path.exists()
        assert json.loads(path.read_text())["case"] == "x38"

    def test_all_cases_have_specs(self):
        assert {"airfoil", "x38", "deltawing", "store"} <= set(BENCH_CASES)
        for spec in BENCH_CASES.values():
            assert spec.knobs(True)["nsteps"] <= spec.knobs(False)["nsteps"]


# ----------------------------------------------------------------------
# traced_run


class TestTracedRun:
    def case(self):
        from repro.cases import build_case

        return build_case("airfoil", machine=sp2(nodes=4), scale=0.05, nsteps=2)

    def test_store_replay_equals_in_memory_recording(self, tmp_path):
        from repro.obs.perf import traced_run

        mem = traced_run(self.case())
        assert mem.store is None and mem.steps == [] and mem.sanitizer is None
        st = traced_run(self.case(), store_dir=tmp_path / "st", sanitize=True)
        assert st.tracer.ops == mem.tracer.ops
        assert st.run.elapsed == mem.run.elapsed
        assert len(st.steps) == 2 and st.store.closed
        assert st.sanitizer.report().ok
        tail = traced_run(self.case(), store_dir=tmp_path / "st", from_step=1)
        assert 0 < len(tail.tracer.ops) < len(mem.tracer.ops)

    def test_from_step_needs_a_store(self):
        from repro.obs.perf import traced_run

        with pytest.raises(ValueError, match="store_dir"):
            traced_run(self.case(), from_step=1)


# ----------------------------------------------------------------------
# trace-diff


class TestTraceDiff:
    def test_identical_payloads_zero_deltas(self, payload):
        report = diff_bench(payload, payload)
        assert report.ok
        assert report.changed == []
        assert "zero deltas" in report.format()

    def test_identical_runs_zero_deltas(self, payload):
        report = diff_bench(payload, x38_quick_payload())
        assert report.ok and report.changed == []

    def test_regression_and_improvement_direction(self, payload):
        worse = json.loads(canonical_json(payload))
        worse["simulated"]["elapsed_s"] *= 1.10  # +10% elapsed: worse
        report = diff_bench(payload, worse, tolerance=0.02)
        assert not report.ok
        paths = [d.path for d in report.regressions]
        assert "simulated.elapsed_s" in paths

        better = json.loads(canonical_json(payload))
        better["simulated"]["elapsed_s"] *= 0.90
        report = diff_bench(payload, better, tolerance=0.02)
        assert report.ok
        assert any(
            d.path == "simulated.elapsed_s" for d in report.improvements
        )

    def test_higher_is_better_metrics_invert(self, payload):
        worse = json.loads(canonical_json(payload))
        worse["simulated"]["mflops_per_node"] *= 0.80  # throughput drop
        report = diff_bench(payload, worse)
        assert any(
            d.path == "simulated.mflops_per_node" for d in report.regressions
        )

    def test_structural_change_is_regression(self, payload):
        other = json.loads(canonical_json(payload))
        other["simulated"]["nranks"] += 1
        report = diff_bench(payload, other)
        assert not report.ok
        assert any(d.kind == "changed" for d in report.regressions)

    def test_within_tolerance_unchanged(self, payload):
        near = json.loads(canonical_json(payload))
        near["simulated"]["elapsed_s"] *= 1.001
        assert diff_bench(payload, near, tolerance=0.02).ok

    def test_schema_mismatch_raises(self, payload):
        other = json.loads(canonical_json(payload))
        other["schema"] = "repro-bench/0"
        with pytest.raises(ValueError, match="schema mismatch"):
            diff_bench(payload, other)

    def test_deltas_sorted_by_path(self, payload):
        other = json.loads(canonical_json(payload))
        other["simulated"]["elapsed_s"] *= 2
        other["simulated"]["extra_metric"] = 1.0
        report = diff_bench(payload, other)
        paths = [d.path for d in report.deltas]
        assert paths == sorted(paths)
        assert any(d.kind == "added" for d in report.deltas)

    def test_diff_files(self, payload, tmp_path):
        a = write_bench(payload, tmp_path / "a")
        b = write_bench(payload, tmp_path / "b")
        report = diff_files(a, b)
        assert report.ok
        blob = json.loads(report.to_json())
        assert blob["ok"] is True and blob["deltas"] == []
