"""One fixture battery per per-file rule: positive, negative, noqa.

Fixture files are written under a temp root so the rules' path scoping
(tests exemption, deterministic packages, tag-authority modules) is
exercised exactly as it is on the real tree.
"""

import textwrap

from repro.analysis import iter_rules, run_check

#: Fixtures here are single files with one-sided traffic, so unless a
#: test selects codes itself only the per-file rules run.
PER_FILE = [r.code for r in iter_rules() if not r.whole_program]

#: A path inside a deterministic package (RPR002/003/007 apply).
DET = "src/repro/machine/mod.py"
#: A path outside every deterministic package.
NONDET = "src/repro/obs/mod.py"


def run_lint(tmp_path, rel, source, select=None):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_check([path], select=select or PER_FILE, root=tmp_path)


def codes(report):
    return [f.code for f in report.findings]


class TestRPR001RawTagLiteral:
    def test_literal_tag_in_send(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            def p(comm):
                yield from comm.send(1, 42, None, nbytes=8)
            """,
        )
        assert codes(rep) == ["RPR001"]

    def test_literal_tag_keyword_and_drain_recv(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            def p(comm):
                yield from comm.recv(0, tag=3)
                yield from comm.drain_recv(1, 7)
            """,
        )
        assert codes(rep) == ["RPR001", "RPR001"]

    def test_literal_tag_in_raw_primitive(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            def p(comm):
                msg = yield ("drain", 0, 5)
            """,
        )
        assert codes(rep) == ["RPR001"]

    def test_literal_tags_in_waitany_patterns(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            TAG_HALO = 11

            def p(comm, src):
                ready = yield from comm.waitany((
                    (src, TAG_HALO),
                    (src, 4),
                    (src, 5) if comm.rank else (0, 6),
                ))
                ready = yield ("waitany", ((src, 7),))
            """,
        )
        assert codes(rep) == ["RPR001"] * 4

    def test_named_constant_ok(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            TAG_HALO = 11

            def p(comm):
                yield from comm.send(1, TAG_HALO, None)
            """,
        )
        assert rep.ok

    def test_tests_tree_exempt(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "tests/test_x.py",
            """\
            def p(comm):
                yield from comm.send(1, 42, None)
            """,
        )
        assert rep.ok

    def test_tag_authority_module_exempt(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/repro/machine/simmpi.py",
            """\
            def p(comm):
                yield from comm.send(1, 42, None)
            """,
        )
        assert "RPR001" not in codes(rep)

    def test_noqa(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            def p(comm):
                yield from comm.send(1, 42, None)  # noqa: RPR001
            """,
        )
        assert rep.ok and len(rep.suppressed) == 1


class TestRPR002WallClock:
    def test_time_time_in_deterministic_path(self, tmp_path):
        rep = run_lint(tmp_path, DET, "import time\nt = time.time()\n")
        assert codes(rep) == ["RPR002"]

    def test_datetime_now(self, tmp_path):
        rep = run_lint(
            tmp_path,
            DET,
            "import datetime\nn = datetime.datetime.now()\n",
        )
        assert codes(rep) == ["RPR002"]

    def test_outside_deterministic_path_ok(self, tmp_path):
        rep = run_lint(tmp_path, NONDET, "import time\nt = time.time()\n")
        assert rep.ok

    def test_virtual_time_ok(self, tmp_path):
        rep = run_lint(
            tmp_path,
            DET,
            """\
            def p(comm):
                t = yield from comm.now()
            """,
        )
        assert rep.ok

    def test_noqa(self, tmp_path):
        rep = run_lint(
            tmp_path, DET, "import time\nt = time.time()  # noqa: RPR002\n"
        )
        assert rep.ok and len(rep.suppressed) == 1


class TestRPR003UnseededRng:
    def test_legacy_global_numpy(self, tmp_path):
        rep = run_lint(
            tmp_path, DET, "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert codes(rep) == ["RPR003"]

    def test_unseeded_default_rng(self, tmp_path):
        rep = run_lint(
            tmp_path,
            DET,
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        assert codes(rep) == ["RPR003"]

    def test_stdlib_random(self, tmp_path):
        rep = run_lint(
            tmp_path, DET, "import random\nx = random.random()\n"
        )
        assert codes(rep) == ["RPR003"]

    def test_seeded_default_rng_ok(self, tmp_path):
        rep = run_lint(
            tmp_path,
            DET,
            "import numpy as np\nrng = np.random.default_rng(42)\n",
        )
        assert rep.ok

    def test_outside_deterministic_path_ok(self, tmp_path):
        rep = run_lint(
            tmp_path, NONDET, "import numpy as np\nx = np.random.rand(3)\n"
        )
        assert rep.ok

    def test_noqa(self, tmp_path):
        rep = run_lint(
            tmp_path,
            DET,
            "import random\nx = random.random()  # noqa: RPR003\n",
        )
        assert rep.ok and len(rep.suppressed) == 1


class TestRPR004MutableDefault:
    def test_list_literal_default(self, tmp_path):
        rep = run_lint(tmp_path, "src/app.py", "def f(x=[]):\n    pass\n")
        assert codes(rep) == ["RPR004"]

    def test_dict_call_and_kwonly_default(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            "def f(a=dict(), *, b={}):\n    pass\n",
        )
        assert codes(rep) == ["RPR004", "RPR004"]

    def test_lambda_default(self, tmp_path):
        rep = run_lint(tmp_path, "src/app.py", "g = lambda x=[]: x\n")
        assert codes(rep) == ["RPR004"]

    def test_none_default_ok(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            "def f(x=None, y=(), z=0):\n    pass\n",
        )
        assert rep.ok

    def test_noqa(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            "def f(x=[]):  # noqa: RPR004\n    pass\n",
        )
        assert rep.ok and len(rep.suppressed) == 1


class TestRPR005UnorderedSendLoop:
    def test_set_loop_with_send(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            TAG = 1

            def p(comm, dsts):
                for d in set(dsts):
                    yield from comm.send(d, TAG, None)
            """,
        )
        assert codes(rep) == ["RPR005"]

    def test_dict_view_loop_with_send(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            TAG = 1

            def p(comm, batches):
                for d, rows in batches.items():
                    yield from comm.send(d, TAG, rows)
            """,
        )
        assert codes(rep) == ["RPR005"]

    def test_raw_inject_primitive_counts_as_send(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            TAG = 1

            def p(comm, dsts):
                for d in {0, 1}:
                    yield ("inject", d, TAG, None, 8)
            """,
        )
        assert codes(rep) == ["RPR005"]

    def test_sorted_loop_ok(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            TAG = 1

            def p(comm, batches):
                for d, rows in sorted(batches.items()):
                    yield from comm.send(d, TAG, rows)
            """,
        )
        assert rep.ok

    def test_loop_without_send_ok(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            def f(batches):
                out = 0
                for d, rows in batches.items():
                    out += len(rows)
                return out
            """,
        )
        assert rep.ok

    def test_noqa(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            TAG = 1

            def p(comm, dsts):
                for d in set(dsts):  # noqa: RPR005
                    yield from comm.send(d, TAG, None)
            """,
        )
        assert rep.ok and len(rep.suppressed) == 1


class TestRPR006SwallowedFailure:
    def test_bare_except(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            def f():
                try:
                    g()
                except:
                    pass
            """,
        )
        assert codes(rep) == ["RPR006"]

    def test_broad_except_around_yield(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            def p(comm):
                try:
                    yield from comm.recv()
                except Exception:
                    pass
            """,
            select=["RPR006"],  # recv() is also an RPR008 wildcard
        )
        assert codes(rep) == ["RPR006"]

    def test_broad_except_with_reraise_ok(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            def p(comm):
                try:
                    yield from comm.recv()
                except Exception:
                    log()
                    raise
            """,
            select=["RPR006"],  # recv() is also an RPR008 wildcard
        )
        assert rep.ok

    def test_broad_except_without_yield_ok(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            def f(x):
                try:
                    return int(x)
                except Exception:
                    return 0
            """,
        )
        assert rep.ok

    def test_specific_except_ok(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            def p(comm):
                try:
                    yield from comm.recv()
                except ValueError:
                    pass
            """,
            select=["RPR006"],  # recv() is also an RPR008 wildcard
        )
        assert rep.ok

    def test_noqa(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            def f():
                try:
                    g()
                except:  # noqa: RPR006
                    pass
            """,
        )
        assert rep.ok and len(rep.suppressed) == 1


class TestRPR007HashOrderIteration:
    def test_set_call_loop(self, tmp_path):
        rep = run_lint(
            tmp_path,
            DET,
            """\
            def f(xs):
                for x in set(xs):
                    print(x)
            """,
        )
        assert codes(rep) == ["RPR007"]

    def test_set_algebra_loop(self, tmp_path):
        rep = run_lint(
            tmp_path,
            DET,
            """\
            def f(xs):
                for x in set(xs) - {-1}:
                    print(x)
            """,
        )
        assert codes(rep) == ["RPR007"]

    def test_sorted_ok(self, tmp_path):
        rep = run_lint(
            tmp_path,
            DET,
            """\
            def f(xs):
                for x in sorted(set(xs)):
                    print(x)
            """,
        )
        assert rep.ok

    def test_dict_views_exempt(self, tmp_path):
        # Python dicts are insertion-ordered, hence deterministic; only
        # RPR005 (send loops) constrains them.
        rep = run_lint(
            tmp_path,
            DET,
            """\
            def f(d):
                for k, v in d.items():
                    print(k, v)
            """,
        )
        assert rep.ok

    def test_outside_deterministic_path_ok(self, tmp_path):
        rep = run_lint(
            tmp_path,
            NONDET,
            """\
            def f(xs):
                for x in set(xs):
                    print(x)
            """,
        )
        assert rep.ok

    def test_noqa(self, tmp_path):
        rep = run_lint(
            tmp_path,
            DET,
            """\
            def f(xs):
                for x in set(xs):  # noqa: RPR007
                    print(x)
            """,
        )
        assert rep.ok and len(rep.suppressed) == 1


class TestRPR008WildcardBlockingRecv:
    def test_blocking_wildcard_recv(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            from repro.machine.event import ANY_SOURCE, ANY_TAG

            def p(comm):
                msg = yield from comm.recv(ANY_SOURCE, ANY_TAG)
            """,
        )
        assert codes(rep) == ["RPR008"]

    def test_dotted_any_source_keyword(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            from repro.machine import event

            def p(comm, TAG_X):
                msg = yield from comm.recv(src=event.ANY_SOURCE, tag=TAG_X)
            """,
        )
        assert codes(rep) == ["RPR008"]

    def test_omitted_src_is_a_wildcard(self, tmp_path):
        # recv defaults src to ANY_SOURCE: leaving it out is the
        # same wildcard receive as spelling it (missed before the rule
        # read CommSite.src_wildcard).
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            def p(comm, TAG_X):
                msg = yield from comm.recv(tag=TAG_X)
                req = yield from comm.recv()
                got = yield from comm.recv(0, TAG_X)
            """,
        )
        assert [(f.code, f.line) for f in rep.findings] == [
            ("RPR008", 2),
            ("RPR008", 3),
        ]

    def test_drain_recv_is_canonical(self, tmp_path):
        # drain_recv(ANY_SOURCE, tag) batch-receives deterministically;
        # it is the recommended replacement, never flagged.
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            from repro.machine.event import ANY_SOURCE

            def p(comm, TAG_X):
                msgs = yield from comm.drain_recv(ANY_SOURCE, TAG_X)
            """,
        )
        assert rep.ok

    def test_explicit_source_ok(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            def p(comm, TAG_X):
                msg = yield from comm.recv(0, TAG_X)
            """,
        )
        assert rep.ok

    def test_tests_tree_exempt(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "tests/test_x.py",
            """\
            from repro.machine.event import ANY_SOURCE, ANY_TAG

            def p(comm):
                msg = yield from comm.recv(ANY_SOURCE, ANY_TAG)
            """,
        )
        assert rep.ok

    def test_tag_module_exempt(self, tmp_path):
        # The tag-space authority modules implement the matching
        # machinery itself.
        rep = run_lint(
            tmp_path,
            "src/repro/machine/simmpi.py",
            """\
            ANY_SOURCE = -1

            def p(comm, TAG_X):
                msg = yield from comm.recv(ANY_SOURCE, TAG_X)
            """,
            select=["RPR008"],
        )
        assert rep.ok

    def test_noqa(self, tmp_path):
        rep = run_lint(
            tmp_path,
            "src/app.py",
            """\
            from repro.machine.event import ANY_SOURCE

            def p(comm, TAG_X):
                msg = yield from comm.recv(ANY_SOURCE, TAG_X)  # noqa: RPR008
            """,
        )
        assert rep.ok and len(rep.suppressed) == 1


class TestRPR009UnorderedFloatReduction:
    def test_sum_over_set_call(self, tmp_path):
        rep = run_lint(
            tmp_path,
            DET,
            """\
            def f(xs):
                return sum(set(xs))
            """,
        )
        assert codes(rep) == ["RPR009"]

    def test_fsum_over_set_algebra(self, tmp_path):
        rep = run_lint(
            tmp_path,
            DET,
            """\
            import math

            def f(a, b):
                return math.fsum(set(a) - set(b))
            """,
        )
        assert codes(rep) == ["RPR009"]

    def test_generator_over_set(self, tmp_path):
        rep = run_lint(
            tmp_path,
            DET,
            """\
            def f(xs):
                return sum(x * x for x in set(xs))
            """,
        )
        assert codes(rep) == ["RPR009"]

    def test_sorted_ok(self, tmp_path):
        rep = run_lint(
            tmp_path,
            DET,
            """\
            def f(xs):
                return sum(sorted(set(xs)))
            """,
        )
        assert rep.ok

    def test_dict_views_exempt(self, tmp_path):
        # Insertion-ordered, hence deterministic (same carve-out as
        # RPR007).
        rep = run_lint(
            tmp_path,
            DET,
            """\
            def f(d):
                return sum(d.values()) + sum(v for v in d.values())
            """,
        )
        assert rep.ok

    def test_outside_deterministic_path_ok(self, tmp_path):
        rep = run_lint(
            tmp_path,
            NONDET,
            """\
            def f(xs):
                return sum(set(xs))
            """,
        )
        assert rep.ok

    def test_noqa(self, tmp_path):
        rep = run_lint(
            tmp_path,
            DET,
            """\
            def f(xs):
                return sum(set(xs))  # noqa: RPR009
            """,
        )
        assert rep.ok and len(rep.suppressed) == 1


class TestRealTree:
    def test_src_lints_clean(self, tree_report):
        # The repo's own source must stay clean (CI runs this too).
        assert tree_report.ok, tree_report.format()
