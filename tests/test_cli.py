"""Tests for the command-line interface."""

import json
import math
import pathlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "airfoil" in out and "sp2" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "airfoil"])
        assert args.machine == "sp2"
        # None = "not given": cmd_run resolves 12 for built-in cases
        # while a --scenario file's own run block wins.
        assert args.nodes is None
        assert args.steps is None
        assert math.isinf(args.f0)


class TestRun:
    def test_run_airfoil_small(self, capsys):
        rc = main([
            "run", "airfoil", "--nodes", "4", "--scale", "0.05",
            "--steps", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "time/step" in out
        assert "DCF3D" in out

    def test_unknown_case(self):
        with pytest.raises(SystemExit, match="unknown case"):
            main(["run", "bogus", "--nodes", "4"])

    def test_unknown_machine(self):
        with pytest.raises(SystemExit, match="unknown machine"):
            main(["run", "airfoil", "--machine", "cray-3"])

    def test_dynamic_f0(self, capsys):
        rc = main([
            "run", "airfoil", "--nodes", "6", "--scale", "0.05",
            "--steps", "4", "--f0", "5",
        ])
        assert rc == 0
        assert "f0=5.0" in capsys.readouterr().out


class TestSweep:
    def test_sweep_produces_table(self, capsys):
        rc = main([
            "sweep", "airfoil", "--nodes", "3,6", "--scale", "0.05",
            "--steps", "2", "--csv",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "nodes,gridpoints/node" in out.replace(" ", "") or "nodes," in out


class TestTrace:
    def test_trace_airfoil_writes_valid_outputs(self, capsys, tmp_path):
        rc = main([
            "trace", "airfoil", "--nodes", "4", "--scale", "0.05",
            "--steps", "2", "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tracing enabled" in out
        assert "span events" in out
        assert "I(p)" in out
        assert "per-rank phase timeline" in out

        # Valid Chrome trace_event JSON with the three op kinds.
        doc = json.loads((tmp_path / "trace_airfoil.json").read_text())
        events = doc["traceEvents"]
        assert any(e.get("ph") == "X" for e in events)
        kinds = {e["name"] for e in events if e.get("ph") == "X"}
        assert {"compute", "comm", "wait"} <= kinds

        # CSV rollup with the expected header and one row per
        # (rank, phase) pair.
        csv = (tmp_path / "trace_airfoil_rollup.csv").read_text()
        assert csv.startswith(
            "rank,phase,compute_s,comm_s,wait_s,total_s,flops,bytes,events"
        )
        assert len(csv.strip().splitlines()) > 4

    def test_trace_x38_runs(self, capsys, tmp_path):
        rc = main([
            "trace", "x38", "--nodes", "4", "--scale", "0.3",
            "--steps", "2", "--no-timeline", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert "X-38" in capsys.readouterr().out
        assert (tmp_path / "trace_x38.json").exists()

    def test_trace_phase_totals_cover_scheduler_time(self, tmp_path):
        """Acceptance check: per-phase totals (compute+comm+wait) tile
        each rank's accounted time up to the run's elapsed virtual
        seconds."""
        rc = main([
            "trace", "airfoil", "--nodes", "4", "--scale", "0.05",
            "--steps", "2", "--no-timeline", "--out", str(tmp_path),
        ])
        assert rc == 0
        csv = (tmp_path / "trace_airfoil_rollup.csv").read_text()
        rows = [r.split(",") for r in csv.strip().splitlines()[1:]]
        per_rank = {}
        for r in rows:
            per_rank.setdefault(int(r[0]), 0.0)
            per_rank[int(r[0])] += float(r[5])
        doc = json.loads((tmp_path / "trace_airfoil.json").read_text())
        t_end = max(
            e["ts"] + e["dur"]
            for e in doc["traceEvents"]
            if e.get("ph") == "X"
        ) / 1e6
        # Every rank's accounted seconds end at (and never exceed) the
        # scheduler's total simulated time.
        assert all(total <= t_end + 1e-9 for total in per_rank.values())
        assert max(per_rank.values()) == pytest.approx(t_end, rel=1e-9)


class TestPhysics:
    def test_physics_runs(self, capsys):
        rc = main(["physics", "--scale", "0.04", "--steps", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "forces:" in out


class TestLintCommand:
    """``repro check`` on per-file rules (the former ``repro lint``)."""

    def test_lint_is_gone_not_aliased(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "src"])
        assert exc.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err

    def test_lint_clean_file_exits_zero(self, capsys, tmp_path):
        f = tmp_path / "clean.py"
        f.write_text("X = 1\n")
        rc = main(["check", str(f)])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_finding_exits_one(self, capsys, tmp_path):
        f = tmp_path / "dirty.py"
        f.write_text("def f(x=[]):\n    pass\n")
        rc = main(["check", str(f)])
        assert rc == 1
        assert "RPR004" in capsys.readouterr().out

    def test_lint_json_output(self, capsys, tmp_path):
        f = tmp_path / "dirty.py"
        f.write_text("def f(x=[]):\n    pass\n")
        rc = main(["check", str(f), "--json"])
        assert rc == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["counts"] == {"RPR004": 1}

    def test_lint_select(self, capsys, tmp_path):
        f = tmp_path / "dirty.py"
        f.write_text("def f(x=[]):\n    pass\n")
        rc = main(["check", str(f), "--select", "RPR001"])
        assert rc == 0

    def test_lint_unknown_select_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown rule code") as exc:
            main(["check", str(tmp_path), "--select", "RPR001,RPR999"])
        assert "RPR001" in str(exc.value) and "RPR015" in str(exc.value)

    def test_lint_rules_catalog(self, capsys):
        rc = main(["check", "--rules"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert [ln.split()[0] for ln in out] == [
            f"RPR{n:03d}" for n in range(1, 16)
        ]

    def test_lint_repo_src_is_clean(self, tree_report):
        assert tree_report.ok, tree_report.format()


@pytest.fixture
def in_dir(tmp_path, monkeypatch):
    """Run from ``tmp_path`` (reported paths are cwd-relative)."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestCheckCommand:
    BAD = (
        "def p(comm):\n"
        "    if comm.rank == 0:\n"
        "        yield from comm.barrier()\n"
    )
    FIXTURES = pathlib.Path(__file__).parent / "analysis/fixtures/commcheck"

    def test_check_clean_file_exits_zero(self, capsys, tmp_path):
        f = tmp_path / "clean.py"
        f.write_text("def p(comm):\n    yield from comm.barrier()\n")
        rc = main(["check", str(f)])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_check_finding_exits_one(self, capsys, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text(self.BAD)
        rc = main(["check", str(f)])
        assert rc == 1
        assert "RPR010" in capsys.readouterr().out

    def test_check_json_output(self, capsys, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text(self.BAD)
        rc = main(["check", str(f), "--json"])
        assert rc == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["counts"] == {"RPR010": 1}

    def test_check_select(self, capsys, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text(self.BAD)
        rc = main(["check", str(f), "--select", "RPR015"])
        assert rc == 0

    def test_check_select_mixes_per_file_and_whole_program(
        self, capsys, monkeypatch
    ):
        # from the fixture tree, so bad.py is not under a `tests` dir
        monkeypatch.chdir(self.FIXTURES)
        rc = main(["check", "rpr014_locks/bad.py", "--select", "RPR014"])
        assert rc == 1
        assert "2 finding(s) (RPR014 x2)" in capsys.readouterr().out
        rc = main([
            "check", "rpr013_reserved/bad.py", "--select", "RPR001,RPR013",
        ])
        assert rc == 1
        assert "(RPR001 x1, RPR013 x3)" in capsys.readouterr().out

    def test_check_unknown_select_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown rule code"):
            main(["check", str(tmp_path), "--select", "RPR999"])

    def test_check_rules_catalog(self, capsys):
        rc = main(["check", "--rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for code in ("RPR010", "RPR015"):
            assert f"{code}  [whole-program]" in out
        assert "RPR001  [per-file]" in out  # one catalog, all 15 rules

    def test_check_baseline_waives_and_stale_fails(self, capsys, in_dir):
        f = in_dir / "bad.py"
        f.write_text(self.BAD)
        bl = in_dir / "bl.json"
        bl.write_text(json.dumps({
            "entries": [
                {"code": "RPR010", "path": "bad.py",
                 "justification": "fixture: documented"},
            ],
        }))
        rc = main(["check", "bad.py", "--baseline", str(bl)])
        assert rc == 0
        assert "1 waived by baseline" in capsys.readouterr().out
        # fix the defect -> entry goes stale -> --baseline-check fails
        f.write_text("def p(comm):\n    yield from comm.barrier()\n")
        rc = main(["check", "bad.py", "--baseline", str(bl)])
        assert rc == 0  # stale alone does not fail a normal run
        assert "stale baseline entry" in capsys.readouterr().out
        rc = main([
            "check", "bad.py", "--baseline", str(bl),
            "--baseline-check",
        ])
        assert rc == 1

    def test_check_missing_baseline_is_empty_unless_checked(
        self, capsys, in_dir
    ):
        (in_dir / "bad.py").write_text(self.BAD)
        assert main(["check", "bad.py", "--baseline", "nope.json"]) == 1
        with pytest.raises(SystemExit, match="baseline file not found"):
            main(["check", "bad.py", "--baseline", "nope.json",
                  "--baseline-check"])

    def test_check_sarif_file_output(self, capsys, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text(self.BAD)
        out_file = tmp_path / "out.sarif"
        rc = main(["check", str(f), "--sarif", str(out_file)])
        assert rc == 1
        assert "RPR010" in capsys.readouterr().out  # text report as well
        doc = json.loads(out_file.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "RPR010"
        assert len(doc["runs"][0]["tool"]["driver"]["rules"]) == 15

    def test_check_sarif_stdout_prints_only_sarif(self, capsys, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text(self.BAD)
        rc = main(["check", str(f), "--sarif", "-"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"][0]["ruleId"] == "RPR010"

    def test_check_summary_flag(self, capsys, tmp_path):
        f = tmp_path / "prog.py"
        f.write_text(
            "TAG_X = 5\n"
            "def p(comm):\n"
            "    yield from comm.send(1, TAG_X, b'')\n"
            "    d, s = yield from comm.recv(0, TAG_X)\n"
        )
        rc = main(["check", str(f), "--summary"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "communication summary:" in out
        assert "send:send tag=TAG_X (= 5)" in out

    def test_check_repo_clean_against_committed_baseline(
        self, capsys, monkeypatch, tree_report
    ):
        # The CI step, as a shell test: cmd_check hands the paths and
        # the committed baseline to run_check and maps the report to an
        # exit code.  The whole-tree analysis itself is the shared
        # session run (tests/conftest.py), not repeated here.
        import repro.analysis

        seen = {}

        def fake(paths, select=None, baseline=None):
            seen.update(paths=paths, select=select, baseline=baseline)
            return tree_report

        monkeypatch.setattr(repro.analysis, "run_check", fake)
        monkeypatch.chdir(pathlib.Path(__file__).resolve().parents[1])
        rc = main(["check", "src", "tests", "--baseline-check"])
        assert rc == 0
        assert seen["paths"] == ["src", "tests"] and seen["select"] is None
        assert len(seen["baseline"]) == len(tree_report.waived)
        assert "0 finding(s)" in capsys.readouterr().out


class TestSanitize:
    def test_run_sanitized_clean(self, capsys):
        rc = main([
            "run", "x38", "--nodes", "4", "--scale", "0.05",
            "--steps", "2", "--sanitize",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sanitizer: CLEAN" in out
        assert "wildcard receives" in out

    def test_run_without_sanitize_prints_no_report(self, capsys):
        rc = main([
            "run", "x38", "--nodes", "4", "--scale", "0.05",
            "--steps", "2",
        ])
        assert rc == 0
        assert "sanitizer" not in capsys.readouterr().out

    def test_trace_sanitized_clean(self, capsys, tmp_path):
        rc = main([
            "trace", "airfoil", "--nodes", "4", "--scale", "0.05",
            "--steps", "2", "--no-timeline", "--sanitize",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert "sanitizer: CLEAN" in capsys.readouterr().out


class TestBench:
    def test_bench_writes_canonical_payload(self, capsys, tmp_path):
        rc = main([
            "bench", "x38", "--quick",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Mflops/node" in out and "max f(p)" in out
        path = tmp_path / "BENCH_x38.json"
        assert path.exists()
        blob = json.loads(path.read_text())
        assert blob["schema"].startswith("repro-bench/")
        assert blob["simulated"]["sanitizer"]["ok"] is True

    def test_bench_unknown_case(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown bench case"):
            main(["bench", "bogus", "--out", str(tmp_path)])

    @pytest.mark.parametrize("argv", [
        ["bench", "x38", "--quick", "--repeats", "1"],
        ["bench", "x38", "--quick", "--backend", "mp"],
        ["run", "--case", "airfoil"],
    ], ids=["repeats", "bench-backend", "case-flag"])
    def test_removed_flags_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cmd_trace_and_bench_share_traced_run(self, tmp_path, monkeypatch):
        """`repro trace` and `repro bench` execute through the one
        traced-run pipeline: one call each."""
        import repro.obs.perf.traced as traced_mod

        calls = []
        real = traced_mod.traced_run

        def spy(target, **kw):
            calls.append(kw["meta"]["component"])
            return real(target, **kw)

        monkeypatch.setattr(traced_mod, "traced_run", spy)
        monkeypatch.setattr("repro.obs.perf.traced_run", spy)
        assert main([
            "trace", "airfoil", "--nodes", "4", "--scale", "0.05",
            "--steps", "2", "--no-timeline", "--out", str(tmp_path),
        ]) == 0
        assert main(["bench", "x38", "--quick", "--out", str(tmp_path)]) == 0
        assert calls == ["trace", "bench"]


class TestBenchCompare:
    """Exit-code contract of `repro bench --compare`:

    regression -> 1, improvement/unchanged -> 0, structural change -> 1,
    schema mismatch -> hard SystemExit, missing baseline -> 1.
    """

    def _fresh(self, tmp_path, name="out"):
        out = tmp_path / name
        rc = main([
            "bench", "x38", "--quick",
            "--out", str(out),
        ])
        assert rc == 0
        return out / "BENCH_x38.json"

    def _baseline_from(self, payload_path, tmp_path, mutate=None):
        base_dir = tmp_path / "baselines"
        base_dir.mkdir(exist_ok=True)
        blob = json.loads(payload_path.read_text())
        if mutate is not None:
            mutate(blob)
        (base_dir / payload_path.name).write_text(json.dumps(blob))
        return base_dir

    def _compare(self, tmp_path, base_dir):
        return main([
            "bench", "x38", "--quick",
            "--out", str(tmp_path / "cmp"),
            "--compare", "--baseline-dir", str(base_dir),
        ])

    def test_unchanged_exits_zero(self, capsys, tmp_path):
        fresh = self._fresh(tmp_path)
        base = self._baseline_from(fresh, tmp_path)
        rc = self._compare(tmp_path, base)
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exits_one(self, capsys, tmp_path):
        fresh = self._fresh(tmp_path)

        def faster_baseline(blob):
            blob["simulated"]["elapsed_s"] /= 1.5

        base = self._baseline_from(fresh, tmp_path, faster_baseline)
        rc = self._compare(tmp_path, base)
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_improvement_exits_zero(self, capsys, tmp_path):
        fresh = self._fresh(tmp_path)

        def slower_baseline(blob):
            blob["simulated"]["elapsed_s"] *= 1.5

        base = self._baseline_from(fresh, tmp_path, slower_baseline)
        rc = self._compare(tmp_path, base)
        assert rc == 0
        assert "improvement" in capsys.readouterr().out.lower()

    def test_structural_change_fails(self, capsys, tmp_path):
        fresh = self._fresh(tmp_path)

        def different_topology(blob):
            blob["simulated"]["nranks"] += 1

        base = self._baseline_from(fresh, tmp_path, different_topology)
        rc = self._compare(tmp_path, base)
        assert rc == 1
        assert "changed" in capsys.readouterr().out.lower()

    def test_schema_mismatch_is_hard_failure(self, tmp_path):
        fresh = self._fresh(tmp_path)

        def old_schema(blob):
            blob["schema"] = "repro-bench/0"

        base = self._baseline_from(fresh, tmp_path, old_schema)
        with pytest.raises(SystemExit, match="schema mismatch"):
            self._compare(tmp_path, base)

    def test_missing_baseline_exits_one(self, capsys, tmp_path):
        rc = main([
            "bench", "x38", "--quick",
            "--out", str(tmp_path / "cmp"),
            "--compare", "--baseline-dir", str(tmp_path / "empty"),
        ])
        assert rc == 1
        assert "no baseline" in capsys.readouterr().err


def _bad_scenario(tmp_path, machine):
    from repro.offbody import generate_scenario

    payload = generate_scenario("debris", seed=5)
    payload["run"]["machine"] = machine
    path = tmp_path / f"{machine}.json"
    path.write_text(json.dumps(payload))
    return ["run", "--scenario", str(path)]


class TestCleanErrors:
    """Bad input ends in a one-line message and exit status 1 (the one
    error boundary in `main`), never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["run", "airfoil", "--nodes", "0"],
        ["run", "airfoil", "--scale", "0"],
        ["run", "airfoil", "--steps", "0"],
        ["run", "airfoil", "--nodes", "2"],  # 3 grids
        ["run", "airfoil", "--machine", "ymp", "--nodes", "4"],
        ["sweep", "airfoil", "--nodes", "6,x"],
        ["run", "airfoil", "--f0", "-1", "--steps", "12"],
        ["run", "airfoil", "--f0", "nan"],
        "bogus",  # scenario file naming an unknown machine
        "ymp",    # ... and one naming the single-processor head
    ], ids=[
        "nodes-0", "scale-0", "steps-0", "too-few-nodes", "ymp-nodes",
        "sweep-nodes", "f0-negative", "f0-nan", "scenario-bogus-machine",
        "scenario-ymp",
    ])
    def test_bad_input_exits_with_message(self, argv, tmp_path):
        if isinstance(argv, str):
            argv = _bad_scenario(tmp_path, argv)
        if argv[0] == "trace":
            argv = argv + ["--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        message = exc_info.value.code
        assert isinstance(message, str) and message.strip()
        assert "Traceback" not in message

    def test_bugs_still_traceback(self, monkeypatch):
        """The boundary converts user-input errors only."""
        import repro.cli.run as run_mod

        def boom(_args):
            raise KeyError("bug")

        monkeypatch.setattr(run_mod, "cmd_list", boom)
        with pytest.raises(KeyError):
            main(["list"])

    @pytest.mark.parametrize("command", ["run", "trace", "resume"])
    def test_checkpoint_every_zero_is_refused(self, command, tmp_path):
        ckpts = tmp_path / "ck"
        if command == "resume":
            main(["run", "airfoil", "--scale", "0.05", "--steps", "2",
                  "--checkpoint-every", "1", "--checkpoint-dir", str(ckpts)])
            argv = ["resume", str(ckpts)]
        else:
            argv = [command, "airfoil", "--scale", "0.05", "--steps", "2"]
            if command == "trace":
                argv += ["--out", str(tmp_path / "tr"), "--no-timeline"]
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--checkpoint-every", "0"])
        assert exc_info.value.code == "checkpoint_every must be >= 1"

    def test_resume_missing_file_is_clean(self, tmp_path):
        missing = tmp_path / "nope.rpk"
        with pytest.raises(SystemExit, match="no checkpoint at"):
            main(["resume", str(missing)])

    def test_resume_empty_dir_is_clean(self, tmp_path):
        with pytest.raises(SystemExit, match="no checkpoints in"):
            main(["resume", str(tmp_path)])

    def test_resume_corrupt_file_is_clean(self, tmp_path):
        bad = tmp_path / "corrupt.rpk"
        bad.write_bytes(b"not a checkpoint")
        with pytest.raises(SystemExit) as exc_info:
            main(["resume", str(bad)])
        assert "Traceback" not in str(exc_info.value)

    def test_submit_missing_socket_is_clean(self, tmp_path):
        with pytest.raises(SystemExit, match="is `repro serve` running"):
            main([
                "submit", "airfoil",
                "--socket", "/tmp/rsv-definitely-missing.sock",
            ])

    def test_jobs_missing_socket_is_clean(self):
        with pytest.raises(SystemExit, match="is `repro serve` running"):
            main(["jobs", "--socket", "/tmp/rsv-definitely-missing.sock"])

    def test_submit_unknown_case_is_clean(self):
        with pytest.raises(SystemExit, match="unknown case"):
            main(["submit", "bogus", "--socket", "/tmp/any.sock"])


class TestServeCLI:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.workers == 2
        assert args.socket.endswith(".sock")
        assert args.job_timeout == 300.0

    def test_submit_parser_defaults(self):
        args = build_parser().parse_args(["submit", "airfoil"])
        assert args.nodes == 4
        assert args.backend == "sim"
        assert not args.no_wait and not args.no_cache

    def test_submit_and_jobs_round_trip(self, capsys):
        """Full CLI loop against an in-process daemon: submit twice
        (second is a cache hit), then list jobs and stats."""
        import tempfile

        from repro.serve import ReproServer

        sock = tempfile.mktemp(prefix="rsv-cli-", suffix=".sock", dir="/tmp")
        with ReproServer(sock, workers=1, job_timeout=60.0):
            argv = [
                "submit", "airfoil", "--nodes", "3", "--scale", "0.05",
                "--steps", "1", "--socket", sock,
            ]
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert "done" in first and "cache hit" not in first

            assert main(argv) == 0
            second = capsys.readouterr().out
            assert "cache hit" in second

            assert main(["jobs", "--socket", sock]) == 0
            listing = capsys.readouterr().out
            assert listing.count("airfoil") == 2

            assert main(["jobs", "--socket", sock, "--stats"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["cache"]["hits"] == 1

    def test_submit_json_output_carries_payload(self, capsys):
        import tempfile

        from repro.serve import ReproServer
        from repro.serve.jobs import run_job_bytes
        from tests.serve.conftest import tiny_spec

        sock = tempfile.mktemp(prefix="rsv-cli-", suffix=".sock", dir="/tmp")
        with ReproServer(sock, workers=1, job_timeout=60.0):
            rc = main([
                "submit", "airfoil", "--nodes", "3", "--scale", "0.05",
                "--steps", "1", "--socket", sock, "--json",
            ])
            assert rc == 0
            rec = json.loads(capsys.readouterr().out)
        assert rec["payload"].encode() == run_job_bytes(tiny_spec())

    def test_submit_failed_job_exits_one(self, capsys, monkeypatch, tmp_path):
        import tempfile

        from repro.serve import ReproServer, ServeClient
        from tests.serve.conftest import ERROR, fault_spec, faulty_run_job_bytes

        # A failing job is a test-side fault (the sentinel f0), so patch
        # the pool before it forks, drive the job through the client and
        # read it back via the CLI.
        monkeypatch.setattr(
            "repro.serve.pool.run_job_bytes",
            faulty_run_job_bytes(str(tmp_path / "crashed")),
        )
        sock = tempfile.mktemp(prefix="rsv-cli-", suffix=".sock", dir="/tmp")
        with ReproServer(sock, workers=1, job_timeout=60.0):
            with ServeClient(sock) as c:
                rec = c.submit(fault_spec(ERROR))
                import pytest as _pytest

                from repro.serve import JobFailedError

                with _pytest.raises(JobFailedError):
                    c.wait(job_id=rec["id"], timeout=60)
            assert main(["jobs", "--socket", sock]) == 0
            out = capsys.readouterr().out
            assert "failed" in out and "RuntimeError" in out


class TestTraceDiff:
    def _emit(self, tmp_path, name):
        out = tmp_path / name
        rc = main([
            "bench", "x38", "--quick",
            "--out", str(out),
        ])
        assert rc == 0
        return out / "BENCH_x38.json"

    def test_identical_runs_diff_clean(self, capsys, tmp_path):
        a = self._emit(tmp_path, "a")
        b = self._emit(tmp_path, "b")
        capsys.readouterr()
        rc = main(["trace-diff", str(a), str(b)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK" in out and "zero deltas" in out

    def test_regression_exits_nonzero(self, capsys, tmp_path):
        a = self._emit(tmp_path, "a")
        blob = json.loads(a.read_text())
        blob["simulated"]["elapsed_s"] *= 1.5
        b = tmp_path / "BENCH_worse.json"
        b.write_text(json.dumps(blob))
        capsys.readouterr()
        rc = main(["trace-diff", str(a), str(b)])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_json_output(self, capsys, tmp_path):
        a = self._emit(tmp_path, "a")
        capsys.readouterr()
        rc = main(["trace-diff", str(a), str(a), "--json"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["ok"] is True and blob["deltas"] == []

    def test_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace-diff", str(tmp_path / "no.json"),
                  str(tmp_path / "pe.json")])


class TestScenarioCLI:
    def _scenario(self, tmp_path):
        path = tmp_path / "scen.json"
        rc = main([
            "scenario", "--kind", "store-salvo", "--seed", "3",
            "--nbodies", "2", "--out", str(path),
        ])
        assert rc == 0
        return path

    def test_scenario_generation_is_deterministic(self, capsys, tmp_path):
        a = self._scenario(tmp_path / "a")
        out = capsys.readouterr().out
        assert "store-salvo scenario, seed 3" in out
        b = self._scenario(tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_scenario_requires_seed(self):
        with pytest.raises(SystemExit):
            main(["scenario", "--kind", "debris"])

    def test_run_scenario(self, capsys, tmp_path):
        path = self._scenario(tmp_path)
        rc = main(["run", "--scenario", str(path), "--steps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "near-body grids" in out
        assert "time/step" in out
        assert "epoch @ step 0" in out
        assert "algorithm3" in out

    def test_run_scenario_grouping_override(self, capsys, tmp_path):
        path = self._scenario(tmp_path)
        rc = main([
            "run", "--scenario", str(path), "--steps", "2",
            "--grouping", "roundrobin",
        ])
        assert rc == 0
        assert "grouping=roundrobin" in capsys.readouterr().out

    def test_run_rejects_case_and_scenario(self, tmp_path):
        path = self._scenario(tmp_path)
        with pytest.raises(SystemExit, match="not both"):
            main(["run", "airfoil", "--scenario", str(path)])

    def test_checkpointed_scenario_run_equals_plain(self, tmp_path):
        from repro.offbody import OffBodyDriver, build_offbody_case
        from repro.offbody import load_scenario

        case = build_offbody_case(
            load_scenario(self._scenario(tmp_path)), nsteps=4
        )
        plain = OffBodyDriver(case).run()
        # Every step, and a boundary that falls inside an adapt epoch.
        for every in (1, 3):
            split = OffBodyDriver(case, checkpoint_every=every).run()
            assert split.physics_signature() == plain.physics_signature()
            assert split.elapsed == plain.elapsed  # bit-equal, not approx

    def test_resume_scenario_checkpoint(self, capsys, tmp_path):
        from repro.offbody import OffBodyDriver, build_offbody_case
        from repro.offbody import load_scenario
        from repro.resilience import CheckpointStore

        path = self._scenario(tmp_path)
        ckpts = tmp_path / "ckpts"
        rc = main([
            "run", "--scenario", str(path), "--steps", "4",
            "--checkpoint-every", "3", "--checkpoint-dir", str(ckpts),
        ])
        assert rc == 0
        assert CheckpointStore(ckpts).latest().meta["measured_step"] == 3
        capsys.readouterr()
        assert main(["resume", str(ckpts)]) == 0
        out = capsys.readouterr().out
        assert "from measured step 3" in out and "epoch @ step 2" in out

        case = build_offbody_case(load_scenario(path), nsteps=4)
        full = OffBodyDriver(case).run()
        resumed = OffBodyDriver(case).resume(CheckpointStore(ckpts).latest())
        assert resumed.physics_signature() == full.physics_signature()
        assert resumed.elapsed == full.elapsed

    def test_run_rejects_missing_scenario_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", str(tmp_path / "no.json")])

    def test_trace_scenario_writes_outputs(self, capsys, tmp_path):
        path = self._scenario(tmp_path)
        out_dir = tmp_path / "tr"
        rc = main([
            "trace", "--scenario", str(path), "--steps", "2",
            "--out", str(out_dir), "--no-timeline",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "epoch @ step 0" in out
        trace = out_dir / "trace_store-salvo-3.json"
        assert trace.exists()
        events = json.loads(trace.read_text())["traceEvents"]
        phases = {e["name"] for e in events if e.get("ph") == "X"}
        assert "offbody:regen" in phases and "offbody:group" in phases
        assert (out_dir / "trace_store-salvo-3_rollup.csv").exists()

    def test_trace_from_step_partial_exports(self, capsys, tmp_path):
        out_dir = tmp_path / "tr"
        rc = main([
            "trace", "airfoil", "--scale", "0.05", "--steps", "3",
            "--nodes", "4", "--trace-store", str(tmp_path / "st"),
            "--from-step", "2", "--out", str(out_dir), "--no-timeline",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "partial replay from step 2" in out
        assert (out_dir / "trace_airfoil_from2.json").exists()
        assert (out_dir / "trace_airfoil_from2_rollup.csv").exists()

    def test_trace_from_step_and_trends_without_store(self, capsys, tmp_path):
        out_dir = tmp_path / "tr"
        rc = main([
            "trace", "airfoil", "--scale", "0.05", "--steps", "2",
            "--nodes", "4", "--from-step", "1", "--trends",
            "--out", str(out_dir), "--no-timeline",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "partial replay from step 1" in out
        assert "trace store:" not in out
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "trace_airfoil_from1.json", "trace_airfoil_from1_rollup.csv",
            "trace_airfoil_trends.csv",
        ]

    def test_trace_from_step_out_of_range(self, tmp_path):
        with pytest.raises(SystemExit, match="out of range"):
            main([
                "trace", "airfoil", "--scale", "0.05", "--steps", "2",
                "--nodes", "4", "--trace-store", str(tmp_path / "st"),
                "--from-step", "9", "--out", str(tmp_path / "tr"),
                "--no-timeline",
            ])

    def test_bench_scenario_payload(self, capsys, tmp_path):
        path = self._scenario(tmp_path)
        rc = main([
            "bench", "--scenario", str(path),
            "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Mflops/node" in out and "epoch @ step 0" in out
        blob = json.loads((tmp_path / "BENCH_store-salvo-3.json").read_text())
        assert blob["schema"].startswith("repro-bench/")
        ob = blob["simulated"]["offbody"]
        assert ob["grouping"] == "algorithm3"
        assert ob["epochs"] and ob["epochs"][0]["npatches"] > 0
        assert blob["simulated"]["sanitizer"]["ok"] is True
