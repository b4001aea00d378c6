"""Fixtures shared across the test tree."""

import ast
from pathlib import Path
from unittest import mock

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def _tree_run():
    """The CI gate, once per session: ``repro check src tests`` against
    the committed baseline, with ``ast.parse`` calls counted."""
    from repro.analysis import load_baseline, run_check

    with mock.patch.object(ast, "parse", wraps=ast.parse) as parse:
        report = run_check(
            [REPO / "src", REPO / "tests"],
            baseline=load_baseline(REPO / "analysis-baseline.json"),
            root=REPO,
        )
    return report, parse.call_count


@pytest.fixture(scope="session")
def tree_report(_tree_run):
    """The whole-tree :class:`~repro.analysis.CheckReport`; every
    self-check test reads this one run (~4 s) instead of redoing it."""
    return _tree_run[0]


@pytest.fixture(scope="session")
def tree_parse_count(_tree_run):
    return _tree_run[1]
