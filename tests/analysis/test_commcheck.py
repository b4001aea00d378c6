"""Tests for the whole-program rules of ``repro check``.

Fixture packages under ``fixtures/commcheck/`` seed one defect class
per rule: ``bad.py`` must fire the rule, ``good.py`` must stay clean.
On top of that: noqa waivers, baseline application + stale detection,
tag/constant resolution through import chains, and the interprocedural
refinements (lock-held propagation, caller-loop wildcard receives).
"""

from pathlib import Path

import pytest

from repro.analysis import (
    BaselineEntry,
    BaselineError,
    Finding,
    apply_baseline,
    extract_summary,
    iter_rules,
    load_baseline,
    load_program,
    rule_catalog,
    run_check,
)

FIXTURES = Path(__file__).parent / "fixtures" / "commcheck"
WHOLE_PROGRAM = [f"RPR01{n}" for n in range(6)]


def check_fixture(name: str, which: str, code: str):
    # root=FIXTURES: relative to the repo the fixtures sit under
    # ``tests/`` and would be checked per-file only, never linked.
    return run_check(
        [FIXTURES / name / f"{which}.py"], select=[code], root=FIXTURES
    )


class TestRegistry:
    def test_commcheck_codes_registered(self):
        assert [r.code for r in iter_rules() if r.whole_program] == (
            WHOLE_PROGRAM
        )

    def test_commcheck_rules_documented(self):
        by_code = {r["code"]: r for r in rule_catalog()}
        for code in WHOLE_PROGRAM:
            entry = by_code[code]
            assert entry["name"] and entry["summary"] and entry["rationale"]
            assert entry["scope"] == "whole-program"

    def test_commcheck_rules_inert_under_lint(self, tmp_path):
        # whole-program rules see only the linked (non-test) modules:
        # the same defect under tests/ is checked per-file and no more
        src = (
            "def p(comm):\n"
            "    if comm.rank == 0:\n"
            "        yield from comm.barrier()\n"
        )
        for rel in ("tests/x.py", "lib/x.py"):
            (tmp_path / rel).parent.mkdir()
            (tmp_path / rel).write_text(src)
        report = run_check([tmp_path], root=tmp_path)
        assert [(f.path, f.code) for f in report.findings] == [
            ("lib/x.py", "RPR010")
        ]
        assert report.files_checked == 2

    def test_any_subset_of_codes_in_one_run(self):
        # per-file and whole-program codes together (two commands and
        # two registries before); RPR014 on its fixture used to print
        # "0 finding(s)" under `lint --select RPR014`
        bad = FIXTURES / "rpr014_locks" / "bad.py"
        report = run_check([bad], select=["RPR014"], root=FIXTURES)
        assert report.counts() == {"RPR014": 2}
        report = run_check([bad], select=["RPR001", "RPR014"], root=FIXTURES)
        assert report.counts() == {"RPR014": 2}
        forged = FIXTURES / "rpr013_reserved" / "bad.py"
        report = run_check(
            [forged], select=["RPR001", "RPR013"], root=FIXTURES
        )
        assert report.counts() == {"RPR001": 1, "RPR013": 3}


@pytest.mark.parametrize(
    "name,code",
    [
        ("rpr010_collective", "RPR010"),
        ("rpr011_tags", "RPR011"),
        ("rpr012_wildcard", "RPR012"),
        ("rpr013_reserved", "RPR013"),
        ("rpr014_locks", "RPR014"),
        ("rpr015_blocking", "RPR015"),
    ],
)
class TestFixtures:
    def test_bad_fires(self, name, code):
        report = check_fixture(name, "bad", code)
        assert not report.ok
        assert {f.code for f in report.findings} == {code}

    def test_good_is_clean(self, name, code):
        report = check_fixture(name, "good", code)
        assert report.ok, [f.format() for f in report.findings]


class TestRPR010:
    def test_three_divergence_shapes(self):
        report = check_fixture("rpr010_collective", "bad", "RPR010")
        msgs = " ".join(f.message for f in report.findings)
        assert len(report.findings) == 3
        assert "barrier" in msgs and "allreduce" in msgs and "bcast" in msgs
        assert "early" in msgs  # the early-return shape names itself


class TestRPR011:
    def test_both_directions_reported(self):
        report = check_fixture("rpr011_tags", "bad", "RPR011")
        msgs = [f.message for f in report.findings]
        assert any("never" in m and "consumed" in m for m in msgs)
        assert any("blocks forever" in m for m in msgs)

    def test_phase_is_named(self):
        report = check_fixture("rpr011_tags", "bad", "RPR011")
        send = [f for f in report.findings if "consumed" in f.message]
        assert "phase 'exchange'" in send[0].message

    def test_cross_module_import_chain(self, tmp_path):
        # tag defined in one module, imported and received in another
        (tmp_path / "tags.py").write_text("TAG_X = 77\n")
        (tmp_path / "a.py").write_text(
            "from tags import TAG_X\n"
            "def s(comm):\n"
            "    yield from comm.send(1, TAG_X, b'')\n"
        )
        (tmp_path / "b.py").write_text(
            "def r(comm):\n"
            "    data, st = yield from comm.recv(0, 77)\n"
            "    return data\n"
        )
        report = run_check([tmp_path], root=tmp_path, select=["RPR011"])
        assert report.ok, [f.format() for f in report.findings]


class TestRPR012:
    def test_interprocedural_names_caller(self):
        report = check_fixture("rpr012_wildcard", "bad", "RPR012")
        inter = [f for f in report.findings if "via" in f.message]
        assert len(inter) == 1
        assert "interprocedural_loop" in inter[0].message


class TestRPR013:
    def test_fallback_matches_simmpi(self):
        from repro.analysis.protocol import MAX_USER_TAG_FALLBACK
        from repro.machine.simmpi import MAX_USER_TAG

        assert MAX_USER_TAG_FALLBACK == MAX_USER_TAG

    def test_authority_modules_exempt(self, tmp_path):
        # the same forged send inside machine/simmpi.py is the authority
        d = tmp_path / "machine"
        d.mkdir()
        src = (
            "_TAG_X = 100_000_000_001\n"
            "def p(self):\n"
            "    yield from self._send(1, _TAG_X, None)\n"
        )
        (d / "simmpi.py").write_text(src)
        (d / "other.py").write_text(src)
        report = run_check([tmp_path], root=tmp_path, select=["RPR013"])
        assert [f.path for f in report.findings] == ["machine/other.py"]


class TestRPR014:
    def test_lock_held_propagation(self):
        # good.py's Counter._bump writes total with no lexical lock but
        # is only ever called under _lock — must not be flagged
        report = check_fixture("rpr014_locks", "good", "RPR014")
        assert report.ok

    def test_init_writes_exempt(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
        )
        report = run_check([tmp_path], root=tmp_path, select=["RPR014"])
        assert report.ok


class TestRPR015:
    def test_condition_wait_exempt(self):
        report = check_fixture("rpr015_blocking", "good", "RPR015")
        assert report.ok, [f.format() for f in report.findings]

    def test_interprocedural_callee_named(self):
        report = check_fixture("rpr015_blocking", "bad", "RPR015")
        inter = [f for f in report.findings if "_write_disk" in f.message]
        assert inter and "write_bytes" in inter[0].message


class TestSummary:
    def test_extracts_tag_phase_and_loop(self):
        program = load_program(
            [FIXTURES / "rpr011_tags" / "bad.py"], root=FIXTURES
        )
        summary = extract_summary(program)
        sends = [s for s in summary.sites if s.kind == "send"]
        assert len(sends) == 1
        assert sends[0].tag.value == 7
        assert sends[0].tag.symbol == "TAG_ORPHAN_SEND"
        assert sends[0].phase == "exchange"
        assert not sends[0].in_loop

    def test_socket_calls_are_not_comm_sites(self, tmp_path):
        # plain .send()/.recv() (no yield from) is socket/pipe surface
        (tmp_path / "m.py").write_text(
            "def f(sock):\n"
            "    sock.send(b'x')\n"
            "    return sock.recv(4)\n"
        )
        program = load_program([tmp_path], root=tmp_path)
        assert extract_summary(program).sites == []

    def test_waitany_is_one_blocking_probe_per_pattern(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "from repro.machine import ANY_SOURCE\n"
            "TAG_A = 1\n"
            "TAG_B = 2\n"
            "TAG_C = 3\n"
            "def p(comm, others):\n"
            "    yield from comm.waitany((\n"
            "        (ANY_SOURCE, TAG_A),\n"
            "        (ANY_SOURCE, TAG_B) if comm.rank == 0 else (0, TAG_C),\n"
            "    ))\n"
            "    yield from comm.waitany(others)\n"
        )
        program = load_program([tmp_path], root=tmp_path)
        sites = extract_summary(program).sites
        assert [
            (s.kind, s.blocking, s.tag.symbol, s.src_wildcard) for s in sites
        ] == [
            ("probe", True, "TAG_A", True),
            ("probe", True, "TAG_B", True),
            ("probe", True, "TAG_C", False),
        ]

    def test_real_tree_has_comm_sites(self, tree_report):
        ops = {s.op for s in tree_report.summary.sites}
        # collectives called by drivers, primitives inside simmpi itself
        assert "barrier" in ops and "allreduce" in ops and "_send" in ops


class TestNoqa:
    def test_explicit_code_waives(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "def p(comm):\n"
            "    if comm.rank == 0:\n"
            "        yield from comm.barrier()  # noqa: RPR010\n"
        )
        report = run_check([tmp_path], root=tmp_path)
        assert report.ok
        assert [f.code for f in report.suppressed] == ["RPR010"]

    def test_other_code_does_not_waive(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "def p(comm):\n"
            "    if comm.rank == 0:\n"
            "        yield from comm.barrier()  # noqa: RPR001\n"
        )
        report = run_check([tmp_path], root=tmp_path)
        assert [f.code for f in report.findings] == ["RPR010"]


class TestBaseline:
    def entry(self, **kw):
        base = dict(
            code="RPR010",
            path="m.py",
            justification="documented",
        )
        base.update(kw)
        return BaselineEntry(**base)

    def run_bad(self, tmp_path, entries):
        (tmp_path / "m.py").write_text(
            "def p(comm):\n"
            "    if comm.rank == 0:\n"
            "        yield from comm.barrier()\n"
        )
        return run_check([tmp_path], root=tmp_path, baseline=entries)

    def test_matching_entry_waives(self, tmp_path):
        report = self.run_bad(tmp_path, [self.entry()])
        assert report.ok
        assert len(report.waived) == 1
        assert not report.stale_baseline

    def test_stale_entry_detected(self, tmp_path):
        stale = self.entry(code="RPR015", path="nope.py")
        report = self.run_bad(tmp_path, [self.entry(), stale])
        assert report.ok
        assert report.stale_baseline == [stale]

    def test_function_and_contains_filters(self, tmp_path):
        wrong_fn = self.entry(function="m.other")
        report = self.run_bad(tmp_path, [wrong_fn])
        assert not report.ok  # entry does not match -> finding kept
        right = self.entry(function="m.p", contains="barrier")
        report = self.run_bad(tmp_path, [right])
        assert report.ok

    def test_loader_rejects_unjustified(self, tmp_path):
        f = tmp_path / "b.json"
        f.write_text(
            '{"entries": [{"code": "RPR015", "path": "x.py", '
            '"justification": "  "}]}'
        )
        with pytest.raises(BaselineError, match="justification"):
            load_baseline(f)

    def test_loader_rejects_bad_json(self, tmp_path):
        f = tmp_path / "b.json"
        f.write_text("{nope")
        with pytest.raises(BaselineError, match="invalid JSON"):
            load_baseline(f)

    def test_apply_baseline_pure(self):
        f = Finding(
            path="x.py", line=1, col=0, code="RPR015",
            message="blocking 'sleep()'", function="x.f",
        )
        res = apply_baseline(
            [f], [BaselineEntry("RPR015", "x.py", "ok", contains="sleep")]
        )
        assert res.kept == [] and len(res.waived) == 1 and not res.stale


class TestEngine:
    def test_unknown_select_raises(self):
        with pytest.raises(ValueError, match="unknown rule code"):
            run_check([FIXTURES], select=["RPR999"], root=FIXTURES)

    def test_syntax_error_reported(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = run_check([tmp_path], root=tmp_path)
        assert [f.code for f in report.findings] == ["RPR000"]

    def test_json_report_round_trips(self, tmp_path):
        import json

        (tmp_path / "m.py").write_text(
            "def p(comm):\n"
            "    if comm.rank == 0:\n"
            "        yield from comm.barrier()\n"
        )
        report = run_check([tmp_path], root=tmp_path)
        data = json.loads(report.to_json())
        assert data["ok"] is False
        assert data["counts"] == {"RPR010": 1}
        assert data["findings"][0]["function"] == "m.p"
