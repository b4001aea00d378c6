"""The per-file rules (codes ``RPR001`` – ``RPR009``).

Each rule enforces one invariant the simulated machine depends on; the
rationale strings below are surfaced verbatim in
``docs/static-analysis.md``.  Rules are registered with
:func:`repro.analysis.engine.register` and instantiated fresh per engine
run, so they may keep per-file state inside ``check_file``.  The rules
that police communication calls (RPR001/005/008) read them from
``ModuleInfo.comm_sites`` — the extractor in
:mod:`repro.analysis.summary` is the only code that knows the ``Comm``
surface.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import ModuleInfo, dotted_name
from repro.analysis.engine import Rule, register
from repro.analysis.model import Finding

# ----------------------------------------------------------------------
# shared AST helpers


def _int_literal(node: ast.AST) -> bool:
    """Is this expression a literal integer (including ``-1``)?"""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _contains(node: ast.AST, types: tuple) -> bool:
    return any(isinstance(n, types) for n in ast.walk(node))


def _is_sorted_wrapped(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"sorted", "min", "max"}
    )


def _unordered_iter_kind(node: ast.AST) -> str | None:
    """Classify a loop-iterable as hash-/dict-ordered, or None.

    Recognises ``X.items()/.keys()/.values()``, ``set(...)`` /
    ``frozenset(...)`` calls, set literals/comprehensions, and set
    algebra (``set(a) - b``) over any of those.  A ``sorted(...)``
    wrapper makes any of them ordered.
    """
    if _is_sorted_wrapped(node):
        return None
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set literal"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in {
            "set",
            "frozenset",
        }:
            return f"{node.func.id}()"
        if isinstance(node.func, ast.Attribute) and node.func.attr in {
            "items",
            "keys",
            "values",
        }:
            return f".{node.func.attr}()"
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)
    ):
        return _unordered_iter_kind(node.left) or _unordered_iter_kind(
            node.right
        )
    return None


# ----------------------------------------------------------------------
# rules


@register
class RawTagLiteral(Rule):
    code = "RPR001"
    name = "raw-tag-literal"
    summary = (
        "message-passing calls must use named TAG_* constants, not "
        "integer tag literals"
    )
    rationale = (
        "The simulated machine partitions its tag space: user tags live "
        "below MAX_USER_TAG, collective rounds above it.  A literal tag "
        "at a call site cannot be audited for collisions with the tag "
        "constants of other subsystems (DCF search/reply, halo "
        "exchange, heartbeat); a "
        "named module-level TAG_* constant can.  Only the tag-space "
        "authority modules (machine/simmpi.py, machine/event.py) may "
        "handle raw integers."
    )

    def applies(self, mod: ModuleInfo) -> bool:
        return not mod.in_tests and not mod.is_tag_module

    def check_file(self, mod: ModuleInfo) -> Iterator[Finding]:
        for site in mod.comm_sites:
            if site.tag_expr is None or not _int_literal(site.tag_expr):
                continue
            where = (
                f"raw ({site.op!r}, ...) primitive"
                if site.raw
                else f"{site.op}() call"
            )
            yield mod.finding(
                site.tag_expr,
                self.code,
                f"literal tag in {where}; use a named TAG_* constant "
                "(< MAX_USER_TAG) or ANY_TAG",
            )


@register
class WallClock(Rule):
    code = "RPR002"
    name = "wall-clock-in-deterministic-path"
    summary = (
        "no wall-clock reads (time.time, datetime.now, ...) in "
        "deterministic packages"
    )
    rationale = (
        "All time in the simulator is virtual: golden-trace regression "
        "and bit-identical checkpoint resume assume that rerunning a "
        "program yields byte-identical timings.  One host-clock read "
        "in machine/solver/connectivity/resilience/core makes output "
        "depend on the wall clock of the machine running the test."
    )

    _CLOCKS = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "date.today",
    }

    def applies(self, mod: ModuleInfo) -> bool:
        return mod.in_deterministic_path and not mod.in_tests

    def check_file(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in self._CLOCKS:
                    yield mod.finding(
                        node,
                        self.code,
                        f"wall-clock read {name}() in a deterministic "
                        "path; use virtual time (comm.now()) or accept "
                        "a value from the caller",
                    )


@register
class UnseededRng(Rule):
    code = "RPR003"
    name = "unseeded-rng-in-deterministic-path"
    summary = (
        "no unseeded / legacy-global RNG draws in deterministic packages"
    )
    rationale = (
        "Randomised behaviour is allowed (fault plans use it) but must "
        "flow from an explicit seed: np.random.default_rng(seed).  The "
        "legacy global numpy RNG and the stdlib random module draw "
        "from interpreter-global state that other tests mutate, so "
        "results depend on execution order."
    )

    _RANDOM_FUNCS = {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "seed",
        "getrandbits",
    }

    def applies(self, mod: ModuleInfo) -> bool:
        return mod.in_deterministic_path and not mod.in_tests

    def check_file(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            head, _, leaf = name.rpartition(".")
            if head in {"np.random", "numpy.random"}:
                if leaf == "default_rng":
                    if not node.args and not node.keywords:
                        yield mod.finding(
                            node,
                            self.code,
                            "default_rng() without a seed draws OS "
                            "entropy; pass an explicit seed",
                        )
                else:
                    yield mod.finding(
                        node,
                        self.code,
                        f"legacy global RNG {name}(); use "
                        "np.random.default_rng(seed)",
                    )
            elif head == "random" and leaf in self._RANDOM_FUNCS:
                yield mod.finding(
                    node,
                    self.code,
                    f"stdlib global RNG {name}(); use "
                    "np.random.default_rng(seed)",
                )
            elif name == "default_rng" and not node.args and not node.keywords:
                yield mod.finding(
                    node,
                    self.code,
                    "default_rng() without a seed draws OS entropy; "
                    "pass an explicit seed",
                )


@register
class MutableDefault(Rule):
    code = "RPR004"
    name = "mutable-default-argument"
    summary = "no mutable default arguments (list/dict/set literals or calls)"
    rationale = (
        "A mutable default is created once at definition time and "
        "shared by every call; state leaking between rank programs or "
        "between test cases is exactly the kind of aliasing bug the "
        "deterministic test battery cannot localise.  Use None and "
        "construct inside the body (or a dataclass field factory)."
    )

    _MUTABLE_CALLS = {
        "list",
        "dict",
        "set",
        "bytearray",
        "defaultdict",
        "OrderedDict",
        "Counter",
        "deque",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
        "collections.deque",
    }

    def check_file(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for d in defaults:
                bad = isinstance(
                    d,
                    (
                        ast.List,
                        ast.Dict,
                        ast.Set,
                        ast.ListComp,
                        ast.DictComp,
                        ast.SetComp,
                    ),
                ) or (
                    isinstance(d, ast.Call)
                    and dotted_name(d.func) in self._MUTABLE_CALLS
                )
                if bad:
                    fn = getattr(node, "name", "<lambda>")
                    yield mod.finding(
                        d,
                        self.code,
                        f"mutable default argument in {fn}(); default "
                        "to None and construct inside the body",
                    )


@register
class UnorderedSendLoop(Rule):
    code = "RPR005"
    name = "unordered-iteration-feeds-send"
    summary = (
        "loops over dict views / sets that issue sends must iterate in "
        "sorted order"
    )
    rationale = (
        "Message injection order is part of the machine's observable "
        "state: it fixes arrival order, which fixes wildcard-receive "
        "matching on the peer.  A dict built from message arrivals has "
        "arrival-dependent insertion order, and set order depends on "
        "hashes, so iterating either while sending re-broadcasts "
        "upstream nondeterminism to every receiver.  Wrap the "
        "iterable in sorted(...) (dcf.py sends by ascending destination)."
    )

    def applies(self, mod: ModuleInfo) -> bool:
        return not mod.in_tests

    def check_file(self, mod: ModuleInfo) -> Iterator[Finding]:
        send_nodes = {
            id(s.node) for s in mod.comm_sites if s.kind == "send"
        }
        for node in ast.walk(mod.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            kind = _unordered_iter_kind(node.iter)
            if kind is None:
                continue
            sends = any(
                id(n) in send_nodes
                for stmt in node.body
                for n in ast.walk(stmt)
            )
            if sends:
                yield mod.finding(
                    node,
                    self.code,
                    f"loop over unordered {kind} issues sends; iterate "
                    "sorted(...) so injection order is deterministic",
                )


@register
class SwallowedFailure(Rule):
    code = "RPR006"
    name = "swallowed-failure-exception"
    summary = (
        "no bare/overbroad except that can swallow RankFailure or "
        "DeadlockError"
    )
    rationale = (
        "RankFailure and DeadlockError are the scheduler's only way to "
        "report that a simulated run is wedged; both inherit from "
        "standard exception bases.  A bare except (anywhere) or an "
        "except Exception/BaseException without re-raise around "
        "yielding code turns a diagnosed protocol failure into "
        "silently-wrong results."
    )

    _BROAD = {"Exception", "BaseException"}

    def check_file(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Try):
                continue
            body_yields = any(
                _contains(stmt, (ast.Yield, ast.YieldFrom))
                for stmt in node.body
            )
            for handler in node.handlers:
                if handler.type is None:
                    yield mod.finding(
                        handler,
                        self.code,
                        "bare except: swallows RankFailure/DeadlockError "
                        "(and KeyboardInterrupt); name the exceptions "
                        "you expect",
                    )
                    continue
                names = set()
                htypes = (
                    handler.type.elts
                    if isinstance(handler.type, ast.Tuple)
                    else [handler.type]
                )
                for t in htypes:
                    n = dotted_name(t)
                    if n:
                        names.add(n.rpartition(".")[2])
                if not (names & self._BROAD):
                    continue
                reraises = any(
                    _contains(stmt, (ast.Raise,)) for stmt in handler.body
                )
                if body_yields and not reraises:
                    yield mod.finding(
                        handler,
                        self.code,
                        "except "
                        + "/".join(sorted(names & self._BROAD))
                        + " around yielding (communicating) code "
                        "without re-raise can swallow RankFailure/"
                        "DeadlockError; catch specific exceptions or "
                        "re-raise",
                    )


@register
class HashOrderIteration(Rule):
    code = "RPR007"
    name = "hash-order-iteration-in-deterministic-path"
    summary = (
        "no for-loops over set(...) / set algebra in deterministic "
        "packages without sorted(...)"
    )
    rationale = (
        "Set iteration order follows hash values, which for strings "
        "vary with PYTHONHASHSEED and for mixed types with memory "
        "layout.  In machine/solver/connectivity/resilience/core this "
        "leaks straight into accumulation order, cache insertion order "
        "and trace output.  Dict views are insertion-ordered and "
        "therefore exempt here (RPR005 still covers them when the loop "
        "sends messages)."
    )

    def applies(self, mod: ModuleInfo) -> bool:
        return mod.in_deterministic_path and not mod.in_tests

    @staticmethod
    def loops(mod: ModuleInfo) -> Iterator[tuple[ast.For | ast.AsyncFor, str]]:
        """``(loop, kind of its unordered iterable)``; ``--fix`` wraps
        exactly these iterables in ``sorted(...)``."""
        for node in ast.walk(mod.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            kind = _unordered_iter_kind(node.iter)
            if kind is None or kind.startswith("."):
                continue  # dict views handled by RPR005 only
            yield node, kind

    def check_file(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node, kind in self.loops(mod):
            yield mod.finding(
                node,
                self.code,
                f"for-loop over unordered {kind} in a deterministic "
                "path; wrap the iterable in sorted(...)",
            )


@register
class WildcardBlockingRecv(Rule):
    code = "RPR008"
    name = "wildcard-blocking-recv"
    summary = (
        "library code must not block on recv(ANY_SOURCE, ...); use "
        "waitany then drain_recv"
    )
    rationale = (
        "A blocking wildcard receive matches whichever message the "
        "scheduler delivers first, so the *protocol* becomes sensitive "
        "to arrival order — exactly the coupling the sanitizer's "
        "wildcard-race check exists to catch after the fact.  The "
        "canonical pattern in this codebase is waitany(patterns) to "
        "sleep until a channel has traffic (it consumes nothing), then "
        "drain_recv(ANY_SOURCE, tag), which receives every arrived "
        "message for a tag in one deterministic (src, seq)-ordered "
        "batch (cf. dcf.py).  Tests may still use recv(ANY_SOURCE) "
        "to exercise the matching machinery itself."
    )

    _ARRIVAL_ORDERED = {"recv"}

    def applies(self, mod: ModuleInfo) -> bool:
        return not mod.in_tests and not mod.is_tag_module

    def check_file(self, mod: ModuleInfo) -> Iterator[Finding]:
        for site in mod.comm_sites:
            if (
                site.op in self._ARRIVAL_ORDERED
                and not site.raw
                and site.src_wildcard
            ):
                yield mod.finding(
                    site.call or site.node,
                    self.code,
                    f"{site.op}(ANY_SOURCE, ...) blocks on "
                    "arrival order; block in waitany(patterns), then "
                    "drain_recv(ANY_SOURCE, tag) to batch-receive "
                    "deterministically",
                )


@register
class UnorderedFloatReduction(Rule):
    code = "RPR009"
    name = "unordered-float-reduction"
    summary = (
        "no sum()/fsum() over sets / set algebra in deterministic "
        "packages"
    )
    rationale = (
        "Float addition is not associative: summing the same values in "
        "a different order changes the last bits of the result, and "
        "set iteration order follows PYTHONHASHSEED-dependent hashes.  "
        "A sum over a set in machine/solver/connectivity/resilience/"
        "core therefore breaks bit-identical golden traces across "
        "interpreter invocations.  Sum a sorted(...) of the values "
        "instead (dict views are insertion-ordered and exempt, "
        "matching RPR007)."
    )

    _REDUCERS = {"sum", "fsum", "math.fsum"}

    def applies(self, mod: ModuleInfo) -> bool:
        return mod.in_deterministic_path and not mod.in_tests

    def _unordered_arg_kind(self, arg: ast.AST) -> str | None:
        """Unordered-kind of a reducer argument, or None.

        Either the argument *is* an unordered iterable (``sum(set(x))``)
        or it is a generator/comprehension drawing from one
        (``sum(v for v in set(x))``).  Dict views are exempt.
        """
        kind = _unordered_iter_kind(arg)
        if kind is not None and not kind.startswith("."):
            return kind
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            for gen in arg.generators:
                k = _unordered_iter_kind(gen.iter)
                if k is not None and not k.startswith("."):
                    return k
        return None

    def check_file(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            name = dotted_name(node.func)
            if name not in self._REDUCERS:
                continue
            kind = self._unordered_arg_kind(node.args[0])
            if kind is not None:
                yield mod.finding(
                    node,
                    self.code,
                    f"{name}() over unordered {kind} accumulates floats "
                    "in hash order; reduce over sorted(...) for a "
                    "bit-stable result",
                )
