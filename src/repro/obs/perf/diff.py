"""Trace/bench diff: classify deltas between two BENCH payloads.

``repro trace-diff A.json B.json`` compares the *deterministic*
``simulated`` section of two ``BENCH_<case>.json`` payloads (the
``host`` section carries wall-clock noise and is ignored), classifying
every leaf delta as ``regression`` / ``improvement`` / ``unchanged``
(within tolerance) or ``added`` / ``removed``.  Two payloads from
identical runs produce zero deltas — the canonical-JSON emitter plus
the simulator's bit-determinism guarantee it — so any nonzero delta is
a real behavioural change, and the CI perf gate fails on regressions
beyond tolerance.

Direction: for most metrics smaller is better (elapsed seconds, wait
time, imbalance factors, traffic); metric names ending in one of
``_HIGHER_IS_BETTER`` invert the sign (throughput-style numbers).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["DiffReport", "MetricDelta", "diff_bench", "diff_files"]

#: Leaf-name suffixes where a larger value is an improvement.
_HIGHER_IS_BETTER = ("mflops_per_node", "speedup")

#: Leaf-name fragments that are counts/ids, not performance metrics:
#: any change is reported as ``changed`` (a regression for gating —
#: the two runs did different work).
_STRUCTURAL = ("nranks", "nsteps", "critical_rank", "schema")


@dataclass
class MetricDelta:
    """One classified leaf difference."""

    path: str
    kind: str  # regression | improvement | unchanged | changed | added | removed
    a: Any = None
    b: Any = None
    rel: float | None = None  # signed relative delta (b-a)/|a|

    def format(self) -> str:
        if self.kind in ("added", "removed"):
            v = self.b if self.kind == "added" else self.a
            return f"  [{self.kind:>11s}] {self.path} = {v!r}"
        if self.rel is None:
            return f"  [{self.kind:>11s}] {self.path}: {self.a!r} -> {self.b!r}"
        return (
            f"  [{self.kind:>11s}] {self.path}: {self.a:.6g} -> {self.b:.6g} "
            f"({self.rel:+.2%})"
        )


@dataclass
class DiffReport:
    """All classified deltas between two payloads."""

    case_a: str
    case_b: str
    tolerance: float
    deltas: list[MetricDelta] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.kind in ("regression", "changed")]

    @property
    def improvements(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.kind == "improvement"]

    @property
    def changed(self) -> list[MetricDelta]:
        """Every non-``unchanged`` delta (deterministic path order)."""
        return [d for d in self.deltas if d.kind != "unchanged"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for d in self.deltas:
            out[d.kind] = out.get(d.kind, 0) + 1
        return dict(sorted(out.items()))

    def format(self, show_unchanged: bool = False) -> str:
        verdict = "OK" if self.ok else "REGRESSION"
        lines = [
            f"trace-diff: {verdict}  ({self.case_a} vs {self.case_b}, "
            f"tolerance {self.tolerance:.1%})"
        ]
        counts = self.counts()
        lines.append(
            "  "
            + ", ".join(f"{k}: {v}" for k, v in counts.items())
            if counts
            else "  no comparable metrics"
        )
        for d in self.deltas:
            if d.kind == "unchanged" and not show_unchanged:
                continue
            lines.append(d.format())
        if not self.changed:
            lines.append("  zero deltas: payloads are equivalent")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "counts": self.counts(),
            "deltas": [
                {
                    "path": d.path,
                    "kind": d.kind,
                    "a": d.a,
                    "b": d.b,
                    "rel": d.rel,
                }
                for d in self.deltas
                if d.kind != "unchanged"
            ],
        }


def _flatten(value: Any, prefix: str, out: dict[str, Any]) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(value[k], f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = value


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _leaf_name(path: str) -> str:
    tail = path.rsplit(".", 1)[-1]
    return tail.split("[", 1)[0]


def _classify(path: str, a: Any, b: Any, tolerance: float) -> MetricDelta:
    name = _leaf_name(path)
    if not (_is_number(a) and _is_number(b)):
        kind = "unchanged" if a == b else "changed"
        return MetricDelta(path=path, kind=kind, a=a, b=b)
    if a == b:
        return MetricDelta(path=path, kind="unchanged", a=a, b=b, rel=0.0)
    denom = max(abs(a), 1e-300)
    rel = (b - a) / denom
    if name in _STRUCTURAL or any(s in name for s in _STRUCTURAL):
        return MetricDelta(path=path, kind="changed", a=a, b=b, rel=rel)
    if abs(rel) <= tolerance:
        return MetricDelta(path=path, kind="unchanged", a=a, b=b, rel=rel)
    higher_better = name.endswith(_HIGHER_IS_BETTER)
    worse = rel < 0 if higher_better else rel > 0
    return MetricDelta(
        path=path,
        kind="regression" if worse else "improvement",
        a=a,
        b=b,
        rel=rel,
    )


def diff_bench(
    a: dict, b: dict, tolerance: float = 0.02
) -> DiffReport:
    """Compare two BENCH payload dicts; see the module docstring."""
    schema_a, schema_b = a.get("schema"), b.get("schema")
    if schema_a != schema_b:
        raise ValueError(
            f"schema mismatch: {schema_a!r} vs {schema_b!r}; "
            "regenerate the older payload"
        )
    report = DiffReport(
        case_a=str(a.get("case", "?")),
        case_b=str(b.get("case", "?")),
        tolerance=tolerance,
    )
    flat_a: dict[str, Any] = {}
    flat_b: dict[str, Any] = {}
    _flatten(a.get("simulated", {}), "simulated", flat_a)
    _flatten(b.get("simulated", {}), "simulated", flat_b)
    # Config identity is part of the comparison: differing shas mean
    # the runs measured different work (reported, never "unchanged").
    flat_a["config_sha"] = a.get("config_sha")
    flat_b["config_sha"] = b.get("config_sha")

    for path in sorted(set(flat_a) | set(flat_b)):
        if path not in flat_b:
            report.deltas.append(
                MetricDelta(path=path, kind="removed", a=flat_a[path])
            )
        elif path not in flat_a:
            report.deltas.append(
                MetricDelta(path=path, kind="added", b=flat_b[path])
            )
        else:
            report.deltas.append(
                _classify(path, flat_a[path], flat_b[path], tolerance)
            )
    return report


def diff_files(
    path_a: str | Path, path_b: str | Path, tolerance: float = 0.02
) -> DiffReport:
    """Load two ``BENCH_*.json`` files and diff them."""
    with open(path_a) as fa:
        a = json.load(fa)
    with open(path_b) as fb:
        b = json.load(fb)
    return diff_bench(a, b, tolerance=tolerance)
