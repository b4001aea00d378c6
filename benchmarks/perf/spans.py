"""Benchmark-owned tracing: timed wrappers around public entry points.

Nothing here imports ``repro``.  A :class:`Recorder` keeps

* **aggregates** for high-frequency boundaries (generator resumes,
  ``Comm`` calls, tracer hooks): ``name -> [calls, resumes, total_ns,
  self_ns]`` where self time is the span's duration minus the part its
  child spans cover, kept by a stack of per-frame child accumulators;
* **coarse spans** (driver runs, backend runs, regeneration, read-back)
  individually — name, start, end and the span that caused it — for the
  ``trace_<workload>.json`` written when the traced pass ends;
* **counts** taken at the same boundaries (messages drained, search
  steps), so ratios are measured where the work happens.

Single-threaded by design: wrappers are installed only around code that
runs on the measuring thread (or inside a forked mp rank, itself single
threaded; its snapshot travels home in the rank's return value).
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns
from typing import Any, Callable

CALLS, RESUMES, TOTAL_NS, SELF_NS = range(4)


class Recorder:
    """Aggregates, coarse spans and counts of one traced repeat."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.agg: dict[str, list[int]] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[dict[str, Any]] = []
        self.objects: dict[str, list[Any]] = {}
        # One child-time accumulator per open frame.
        self._stack: list[int] = []
        # Ids of the open coarse spans (innermost last).
        self._open: list[int] = []

    # -- recording ------------------------------------------------------

    def _entry(self, name: str) -> list[int]:
        e = self.agg.get(name)
        if e is None:
            e = self.agg[name] = [0, 0, 0, 0]
        return e

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def remember(self, kind: str, obj: Any) -> None:
        self.objects.setdefault(kind, []).append(obj)

    # -- results --------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Picklable copy of the aggregates and counts."""
        return {
            "agg": {k: list(v) for k, v in self.agg.items()},
            "counts": dict(self.counts),
        }

    def merge(self, snap: dict[str, Any]) -> None:
        """Add a snapshot taken elsewhere (a forked rank)."""
        for name, (calls, resumes, total, self_ns) in snap["agg"].items():
            e = self._entry(name)
            e[CALLS] += calls
            e[RESUMES] += resumes
            e[TOTAL_NS] += total
            e[SELF_NS] += self_ns
        for name, value in snap["counts"].items():
            self.count(name, value)

    # -- wrappers -------------------------------------------------------

    def timed(
        self,
        name: str,
        fn: Callable,
        *,
        keep: bool = False,
        on_return: Callable[[Any], None] | None = None,
    ) -> Callable:
        """Wrap a plain function: one span per call.

        ``keep`` records the span individually as well; ``on_return``
        sees the return value (for counts taken from result objects).
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = rec._stack
            stack.append(0)
            span = rec._begin(name) if keep else None
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                e = rec._entry(name)
                e[CALLS] += 1
                e[TOTAL_NS] += dt
                e[SELF_NS] += dt - child
                if stack:
                    stack[-1] += dt
                if span is not None:
                    rec._end(span, t0, dt)
            if on_return is not None:
                on_return(out)
            return out

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def timed_generator(
        self,
        name: str,
        genfn: Callable,
        *,
        on_return: Callable[[Any], None] | None = None,
    ) -> Callable:
        """Wrap a generator function: one call, one span per resume."""
        rec = self

        @functools.wraps(genfn)
        def wrapper(*args: Any, **kwargs: Any) -> "TimedGenerator":
            rec._entry(name)[CALLS] += 1
            return TimedGenerator(rec, name, genfn(*args, **kwargs), on_return)

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def _begin(self, name: str) -> dict[str, Any]:
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def _end(self, span: dict[str, Any], t0: int, dt: int) -> None:
        self._open.pop()
        span["start_ns"] = t0
        span["end_ns"] = t0 + dt


class TimedGenerator:
    """Generator proxy timing every resume; ``yield from``-compatible.

    Return values travel in ``StopIteration`` exactly as from the
    wrapped generator, ``throw`` and ``close`` are passed through.
    """

    __slots__ = ("_rec", "_name", "_gen", "_on_return")

    def __init__(
        self,
        rec: Recorder,
        name: str,
        gen: Any,
        on_return: Callable[[Any], None] | None,
    ) -> None:
        self._rec = rec
        self._name = name
        self._gen = gen
        self._on_return = on_return

    def __iter__(self) -> "TimedGenerator":
        return self

    def _resume(self, method: Callable, *args: Any) -> Any:
        rec = self._rec
        stack = rec._stack
        stack.append(0)
        t0 = perf_counter_ns()
        try:
            return method(*args)
        except StopIteration as stop:
            if self._on_return is not None:
                self._on_return(stop.value)
            raise
        finally:
            dt = perf_counter_ns() - t0
            child = stack.pop()
            e = rec._entry(self._name)
            e[RESUMES] += 1
            e[TOTAL_NS] += dt
            e[SELF_NS] += dt - child
            if stack:
                stack[-1] += dt

    def __next__(self) -> Any:
        return self._resume(self._gen.send, None)

    def send(self, value: Any) -> Any:
        return self._resume(self._gen.send, value)

    def throw(self, *exc: Any) -> Any:
        return self._resume(self._gen.throw, *exc)

    def close(self) -> None:
        self._gen.close()


def self_times(spans: list[dict[str, Any]]) -> dict[int, int]:
    """Self time (ns) of every span of a tree: its duration minus the
    part of that interval its direct children cover."""
    out = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return out


class Patcher:
    """Replace attributes and put every one of them back.

    Module-level functions are usually imported by name
    (``from m import f``), so :meth:`function` rebinds every alias in
    every already-imported module of the given packages.
    """

    def __init__(self, packages: tuple[str, ...]) -> None:
        self.packages = packages
        self._undo: list[tuple[Any, str, Any]] = []

    def attribute(self, owner: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Wrap ``owner.attr`` (a class or module attribute)."""
        old = vars(owner)[attr]
        if isinstance(old, classmethod):
            new: Any = classmethod(wrap(old.__func__))
        elif isinstance(old, staticmethod):
            new = staticmethod(wrap(old.__func__))
        else:
            new = wrap(old)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def function(self, fn: Callable, wrap: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function under every name it goes by."""
        new = wrap(fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith(self.packages):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
