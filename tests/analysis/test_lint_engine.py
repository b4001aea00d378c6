"""Tests for the check engine itself (registry, noqa, select, output),
on per-file rules; ``test_commcheck.py`` covers the whole-program side."""

import json
import textwrap

import pytest

from repro.analysis import Rule, iter_rules, register, rule_catalog, run_check
from repro.analysis.callgraph import _noqa_codes


#: The fixtures below are one-sided (a send, no receive): keep the
#: whole-program tag matching out of the per-file assertions.
PER_FILE = [r.code for r in iter_rules() if not r.whole_program]


def write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


class TestRegistry:
    def test_rules_sorted_and_unique(self):
        codes = [r.code for r in iter_rules()]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))
        assert codes == [f"RPR{n:03d}" for n in range(1, 16)]

    def test_catalog_is_documented(self):
        for entry in rule_catalog():
            assert entry["code"].startswith("RPR")
            assert entry["name"]
            assert entry["summary"]
            assert entry["rationale"]

    def test_register_rejects_bad_code(self):
        class Bad(Rule):
            code = "XXX1"

        with pytest.raises(ValueError, match="bad rule code"):
            register(Bad)

    def test_register_rejects_duplicate(self):
        class Dup(Rule):
            code = "RPR001"

        with pytest.raises(ValueError, match="duplicate"):
            register(Dup)


class TestNoqa:
    def test_no_comment(self):
        assert _noqa_codes("x = 1") is None

    def test_bare_noqa_waives_all(self):
        assert _noqa_codes("x = 1  # noqa") == set()

    def test_specific_codes(self):
        assert _noqa_codes("x  # noqa: RPR001") == {"RPR001"}
        assert _noqa_codes("x  # NOQA: rpr001, RPR005") == {
            "RPR001",
            "RPR005",
        }

    def test_suppression_counted_not_silent(self, tmp_path):
        path = write(
            tmp_path,
            "src/app.py",
            """\
            def p(comm):
                yield from comm.send(1, 42, None)  # noqa: RPR001
            """,
        )
        report = run_check([path], select=PER_FILE, root=tmp_path)
        assert report.findings == []
        assert [f.code for f in report.suppressed] == ["RPR001"]
        assert "1 waived by noqa" in report.format()

    def test_other_code_does_not_waive(self, tmp_path):
        path = write(
            tmp_path,
            "src/app.py",
            """\
            def p(comm):
                yield from comm.send(1, 42, None)  # noqa: RPR005
            """,
        )
        report = run_check([path], select=PER_FILE, root=tmp_path)
        assert [f.code for f in report.findings] == ["RPR001"]
        assert report.suppressed == []


class TestEngine:
    def test_syntax_error_is_rpr000(self, tmp_path):
        path = write(tmp_path, "bad.py", "def broken(:\n")
        report = run_check([path], root=tmp_path)
        assert not report.ok
        assert report.findings[0].code == "RPR000"

    def test_syntax_error_position_is_the_parser_offset(self, tmp_path):
        path = write(tmp_path, "syn.py", "def f(:\n")
        report = run_check([path], root=tmp_path)
        assert report.format().startswith("syn.py:1:7 RPR000 syntax error")

    def test_unreadable_file_is_rpr000_and_the_rest_is_checked(self, tmp_path):
        (tmp_path / "latin.py").write_bytes(b"x = '\xff'\n")
        write(tmp_path, "app.py", "def f(x=[]):\n    pass\n")
        report = run_check([tmp_path], root=tmp_path)
        assert [(f.path, f.line, f.col, f.code) for f in report.findings] == [
            ("app.py", 1, 8, "RPR004"),
            ("latin.py", 1, 0, "RPR000"),
        ]
        assert "unreadable source" in report.findings[1].message
        assert report.files_checked == 2
        # selecting other rules never hides an unreadable input
        only = run_check([tmp_path], select=["RPR014"], root=tmp_path)
        assert [f.code for f in only.findings] == ["RPR000"]

    def test_select_restricts(self, tmp_path):
        write(
            tmp_path,
            "src/app.py",
            """\
            def f(x=[]):
                yield from comm.send(1, 42, None)
            """,
        )
        both = run_check([tmp_path], root=tmp_path)
        assert sorted(both.counts()) == ["RPR001", "RPR004", "RPR011"]
        mixed = run_check(
            [tmp_path], select=["RPR004", "rpr011"], root=tmp_path
        )
        assert sorted(mixed.counts()) == ["RPR004", "RPR011"]
        only = run_check([tmp_path], select=["RPR004"], root=tmp_path)
        assert sorted(only.counts()) == ["RPR004"]

    def test_unknown_select_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule code") as exc:
            run_check([tmp_path], select=["RPR999"], root=tmp_path)
        for n in range(1, 16):  # the message lists every known code
            assert f"RPR{n:03d}" in str(exc.value)

    def test_json_output(self, tmp_path):
        write(tmp_path, "src/app.py", "def f(x=[]):\n    pass\n")
        report = run_check([tmp_path], root=tmp_path)
        data = json.loads(report.to_json())
        assert data["ok"] is False
        assert data["counts"] == {"RPR004": 1}
        assert data["findings"][0]["path"].endswith("app.py")

    def test_format_mentions_location_and_code(self, tmp_path):
        write(tmp_path, "src/app.py", "def f(x=[]):\n    pass\n")
        report = run_check([tmp_path], root=tmp_path)
        out = report.format()
        assert "src/app.py:1" in out
        assert "RPR004" in out
        assert "1 file(s) checked" in out

    def test_clean_tree_ok(self, tmp_path):
        write(tmp_path, "src/app.py", "X = 1\n")
        report = run_check([tmp_path], root=tmp_path)
        assert report.ok
        assert report.files_checked == 1
