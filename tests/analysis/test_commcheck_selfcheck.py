"""Self-check: ``repro check src tests`` is clean against the baseline.

This is the same invariant CI enforces — the real tree must produce no
findings beyond the committed, justified baseline, the baseline must
contain no stale entries, and the defects the analyzer originally
surfaced (disk I/O under the result-cache lock) must stay fixed.  All
whole-tree assertions read the one session-scoped ``tree_report``
(``tests/conftest.py``).
"""

from pathlib import Path

from repro.analysis import load_baseline, run_check

REPO = Path(__file__).resolve().parents[2]
BASELINE = REPO / "analysis-baseline.json"


class TestSelfCheck:
    def test_src_repro_clean_against_baseline(self, tree_report):
        assert tree_report.ok, tree_report.format()

    def test_baseline_has_no_stale_entries(self, tree_report):
        stale = [e.describe() for e in tree_report.stale_baseline]
        assert not stale, f"stale baseline entries: {stale}"

    def test_baseline_entries_are_justified(self):
        for entry in load_baseline(BASELINE):
            assert len(entry.justification) > 20, entry.describe()

    def test_summary_covers_known_protocols(self, tree_report):
        rels = {s.func.module.rel for s in tree_report.summary.sites}
        assert any("machine/simmpi" in r for r in rels)
        assert any("connectivity" in r for r in rels)
        assert any("solver" in r for r in rels)

    def test_one_run_is_lint_plus_check(self, tree_report):
        # The union gate: one `check src tests` reproduces what the two
        # commands it replaced reported (`lint src tests` + `check
        # src/repro`): nothing kept, nothing noqa-waived, exactly the
        # documented baseline waivers — and test modules are checked but
        # not linked into the program.
        assert not tree_report.findings and not tree_report.suppressed
        assert [e for _f, e in tree_report.waived] == load_baseline(BASELINE)
        assert tree_report.summary.sites
        n_src = len(list((REPO / "src").rglob("*.py")))
        n_tests = len(list((REPO / "tests").rglob("*.py")))
        assert tree_report.files_checked == n_src + n_tests
        assert not any(
            "tests" in Path(s.func.module.rel).parts
            for s in tree_report.summary.sites
        )

    def test_each_input_is_parsed_once(self, tree_report, tree_parse_count):
        assert tree_parse_count == tree_report.files_checked


class TestCacheRegression:
    """PR regression: ResultCache held its lock across disk I/O."""

    def test_cache_has_no_blocking_under_lock(self):
        report = run_check(
            [REPO / "src" / "repro" / "serve" / "cache.py"],
            root=REPO,
            select=["RPR015"],
        )
        assert report.ok, "\n".join(f.format() for f in report.findings)

    def test_cache_lock_discipline_still_consistent(self):
        # counters and the LRU map must stay consistently locked after
        # the fix (the _insert lock-held propagation keeps this green)
        report = run_check(
            [REPO / "src" / "repro" / "serve" / "cache.py"],
            root=REPO,
            select=["RPR014"],
        )
        assert report.ok, "\n".join(f.format() for f in report.findings)

    def test_spill_write_happens_outside_lock(self, tmp_path):
        # behavioral guard: a put() staged to disk must not leave temp
        # litter and must keep tiers consistent
        from repro.serve.cache import ResultCache

        cache = ResultCache(directory=tmp_path, max_entries=4)
        cache.put("a" * 8, b"payload-a")
        assert cache.get("a" * 8) == b"payload-a"
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_concurrent_puts_same_sha_agree(self, tmp_path):
        import threading

        from repro.serve.cache import ResultCache

        cache = ResultCache(directory=tmp_path, max_entries=8)
        start = threading.Barrier(4)

        def worker():
            start.wait()
            for _ in range(25):
                cache.put("s" * 8, b"identical-bytes")
                assert cache.get("s" * 8) == b"identical-bytes"

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.get("s" * 8) == b"identical-bytes"
        assert (tmp_path / ("s" * 8 + ".json")).read_bytes() == (
            b"identical-bytes"
        )
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_spilled_get_reads_outside_then_inserts(self, tmp_path):
        from repro.serve.cache import ResultCache

        warm = ResultCache(directory=tmp_path)
        warm.put("x" * 8, b"spilled")
        cold = ResultCache(directory=tmp_path)
        assert cold.get("x" * 8) == b"spilled"
        stats = cold.stats()
        assert stats["hits"] == 1 and stats["misses"] == 0
