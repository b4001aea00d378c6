"""Fixture tests for ``repro check --fix`` (RPR007 auto-rewrite)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.analysis import fix_paths, fix_rpr007_source, run_check

#: Path that puts fixtures inside a deterministic package for scoping.
DET = "core/module.py"


def _fix(source: str, rel: str = DET) -> tuple[str, int]:
    return fix_rpr007_source(source, rel)


def test_simple_set_call_wrapped():
    src = "for g in set(grids):\n    handle(g)\n"
    out, n = _fix(src)
    assert n == 1
    assert out == "for g in sorted(set(grids)):\n    handle(g)\n"


def test_set_literal_and_comprehension_wrapped():
    src = (
        "for a in {1, 2, 3}:\n    pass\n"
        "for b in {x for x in items}:\n    pass\n"
    )
    out, n = _fix(src)
    assert n == 2
    assert "in sorted({1, 2, 3}):" in out
    assert "in sorted({x for x in items}):" in out


def test_set_algebra_wrapped_whole_expression():
    src = "for g in set(donors) | set(receivers):\n    pass\n"
    out, n = _fix(src)
    assert n == 1
    assert out.startswith("for g in sorted(set(donors) | set(receivers)):")


def test_fix_is_idempotent():
    src = "for g in set(grids):\n    handle(g)\n"
    once, n1 = _fix(src)
    twice, n2 = _fix(once)
    assert n1 == 1 and n2 == 0
    assert twice == once


def test_noqa_waiver_respected():
    src = "for g in set(grids):  # noqa: RPR007\n    handle(g)\n"
    out, n = _fix(src)
    assert n == 0
    assert out == src
    bare = "for g in set(grids):  # noqa\n    handle(g)\n"
    out, n = _fix(bare)
    assert n == 0


def test_scoping_outside_deterministic_packages_untouched():
    src = "for g in set(grids):\n    handle(g)\n"
    for rel in ("obs/report.py", "tests/core/test_x.py"):
        out, n = _fix(src, rel)
        assert n == 0
        assert out == src


def test_dict_views_left_for_rpr005():
    src = "for k in table.keys():\n    pass\n"
    out, n = _fix(src)
    assert n == 0


def test_multiline_and_unicode_safe():
    src = (
        "x = 'ééé'\n"
        "for g in set(\n"
        "    donors\n"
        "):\n"
        "    pass\n"
    )
    out, n = _fix(src)
    assert n == 1
    assert "sorted(set(\n    donors\n))" in out
    # Round-trips as valid python.
    compile(out, "<fixture>", "exec")


def test_two_loops_one_line_both_fixed():
    src = "for a in set(x): b = [c for c in a]\nfor d in set(y):\n    pass\n"
    out, n = _fix(src)
    assert n == 2
    compile(out, "<fixture>", "exec")


def test_fix_paths_rewrites_in_place_and_lints_clean(tmp_path: Path):
    pkg = tmp_path / "core"
    pkg.mkdir()
    target = pkg / "mod.py"
    target.write_text(
        "def f(grids):\n"
        "    out = []\n"
        "    for g in set(grids):\n"
        "        out.append(g)\n"
        "    return out\n"
    )
    clean = pkg / "clean.py"
    clean.write_text("def g():\n    return 1\n")

    before = run_check([tmp_path], select=["RPR007"], root=tmp_path)
    assert before.counts().get("RPR007") == 1

    result = fix_paths([tmp_path], root=tmp_path)
    assert result.fixes == 1
    assert list(result.changed) == ["core/mod.py"]
    assert result.files_checked == 2
    assert "sorted(set(grids))" in target.read_text()
    # The clean file was not rewritten.
    assert clean.read_text() == "def g():\n    return 1\n"

    after = run_check([tmp_path], select=["RPR007"], root=tmp_path)
    assert after.ok


def test_cli_lint_fix_end_to_end(tmp_path: Path):
    pkg = tmp_path / "machine"
    pkg.mkdir()
    target = pkg / "mod.py"
    target.write_text("for g in set(range(3)):\n    print(g)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--fix", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env={
            "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
            "PATH": "/usr/bin:/bin",
        },
    )
    assert "fixed 1 RPR007 finding(s)" in proc.stdout, proc.stdout
    assert "sorted(set(range(3)))" in target.read_text()
    # Post-fix check of the fixture tree is clean -> exit 0.
    assert proc.returncode == 0, proc.stdout + proc.stderr
