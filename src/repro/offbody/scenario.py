"""Seeded scenario generation: randomized multi-body off-body cases.

``repro scenario --kind store-salvo --seed 7`` emits a canonical JSON
scenario file — a fully data-described :class:`OffBodyCase` — that
``repro run/trace/bench --scenario <file>`` executes on any backend.
Three kinds are generated:

* ``store-salvo`` — a row of stores ejected in sequence, each on a
  :class:`repro.motion.prescribed.StoreSeparation` trajectory with
  randomized ejection/gravity/pitch parameters;
* ``debris`` — tumbling fragments drifting apart on randomized
  :class:`TumbleDrift` trajectories;
* ``formation`` — a wedge of bodies translating together with small
  per-body perturbations.

Determinism contract: the payload is a pure function of
``(kind, seed, nbodies)`` (``random.Random(seed)``, no global RNG) and
serialises through :func:`repro.obs.perf.bench.canonical_json`, so the
same invocation always produces byte-identical files — the property
battery pins this.

Scenario files carry ``schema = "repro-scenario/1"``; loading validates
structure and raises the typed :class:`ScenarioError`.  Loaded
scenarios register themselves in the shared case registry
(:mod:`repro.cases.registry`) so the CLI resolves them through the same
lookup path as the built-in benchmarks.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.grids.bbox import AABB
from repro.grids.generators import body_of_revolution_grid
from repro.grids.motion import RigidMotion
from repro.machine import machine_preset
from repro.motion.prescribed import (
    PrescribedMotion,
    SteadyDescent,
    StoreSeparation,
)
from repro.obs.perf.bench import canonical_json
from repro.offbody.driver import GROUPING_STRATEGIES, OffBodyCase

SCENARIO_SCHEMA = "repro-scenario/1"

SCENARIO_KINDS = ("store-salvo", "debris", "formation")


class ScenarioError(ValueError):
    """A scenario payload or file is malformed."""


@dataclass
class TumbleDrift(PrescribedMotion):
    """Tumbling drift: constant spin about ``axis`` through ``center``
    plus a linear drift and a sinusoidal bob — the generic "loose
    debris" trajectory of the scenario generator."""

    velocity: tuple = (0.1, 0.0, 0.0)
    axis: tuple = (0.0, 0.0, 1.0)
    rate: float = 0.3            # rad per unit time
    center: tuple = (0.0, 0.0, 0.0)
    bob_amplitude: float = 0.0
    bob_omega: float = 1.0
    bob_phase: float = 0.0

    def at(self, t: float) -> RigidMotion:
        v = np.asarray(self.velocity, dtype=float)
        trans = v * t
        trans[1] += self.bob_amplitude * np.sin(self.bob_omega * t + self.bob_phase)
        rot = RigidMotion.rotation3d(self.axis, self.rate * t, center=self.center)
        return rot.then(RigidMotion.translation_of(trans))


#: Serialisable motion types: scenario "type" string -> class.
MOTION_TYPES: dict[str, type[PrescribedMotion]] = {
    "store-separation": StoreSeparation,
    "steady-descent": SteadyDescent,
    "tumble-drift": TumbleDrift,
}


def _motion_from_spec(spec: dict[str, Any]) -> PrescribedMotion:
    try:
        mtype = spec["type"]
        params = dict(spec.get("params", {}))
    except (TypeError, KeyError) as exc:
        raise ScenarioError(f"bad motion spec {spec!r}") from exc
    cls = MOTION_TYPES.get(mtype)
    if cls is None:
        raise ScenarioError(
            f"unknown motion type {mtype!r}; "
            f"choose from {sorted(MOTION_TYPES)}"
        )
    params = {
        k: tuple(v) if isinstance(v, list) else v for k, v in params.items()
    }
    try:
        return cls(**params)
    except TypeError as exc:
        raise ScenarioError(f"bad params for motion {mtype!r}: {exc}") from exc


# ----------------------------------------------------------------------
# generation


def _r(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform draw rounded to 6 decimals (keeps files readable and the
    canonical bytes stable against float-repr drift)."""
    return round(rng.uniform(lo, hi), 6)


def _body(name: str, origin: tuple[float, float, float]) -> dict[str, Any]:
    return {
        "name": name,
        "grid": {
            "ni": 9, "nj": 9, "nk": 7,
            "length": 0.45,
            "body_radius": 0.04,
            "outer_radius": 0.16,
            "axis_origin": list(origin),
        },
    }


def generate_scenario(
    kind: str, seed: int, nbodies: int | None = None
) -> dict[str, Any]:
    """Build a scenario payload for ``(kind, seed)`` — pure function."""
    if kind not in SCENARIO_KINDS:
        raise ScenarioError(
            f"unknown scenario kind {kind!r}; choose from {SCENARIO_KINDS}"
        )
    rng = random.Random(seed)
    if nbodies is None:
        nbodies = rng.randint(2, 3)
    if nbodies < 1:
        raise ScenarioError("nbodies must be >= 1")

    bodies: list[dict[str, Any]] = []
    if kind == "store-salvo":
        for b in range(nbodies):
            origin = (round(0.7 * b, 6), 0.0, 0.0)
            body = _body(f"store-{b}", origin)
            body["motion"] = {
                "type": "store-separation",
                "params": {
                    "eject_velocity": _r(rng, 0.15, 0.35),
                    "gravity": _r(rng, 0.05, 0.15),
                    "pitch_rate": _r(rng, 0.02, 0.08),
                    "max_pitch": round(float(np.deg2rad(20.0)), 6),
                    "center": [origin[0] + 0.2, 0.0, 0.0],
                    "drop_axis": 1,
                },
            }
            bodies.append(body)
    elif kind == "debris":
        for b in range(nbodies):
            origin = (round(0.7 * b, 6), 0.0, 0.0)
            body = _body(f"debris-{b}", origin)
            axis = [_r(rng, -1.0, 1.0), _r(rng, -1.0, 1.0), 1.0]
            body["motion"] = {
                "type": "tumble-drift",
                "params": {
                    "velocity": [
                        _r(rng, -0.3, 0.3),
                        _r(rng, -0.4, -0.1),
                        _r(rng, -0.15, 0.15),
                    ],
                    "axis": axis,
                    "rate": _r(rng, 0.2, 0.8),
                    "center": [origin[0] + 0.2, 0.0, 0.0],
                    "bob_amplitude": _r(rng, 0.0, 0.05),
                    "bob_omega": _r(rng, 0.5, 2.0),
                    "bob_phase": _r(rng, 0.0, 3.0),
                },
            }
            bodies.append(body)
    else:  # formation
        lead_v = [_r(rng, 0.1, 0.3), _r(rng, -0.1, 0.1), 0.0]
        for b in range(nbodies):
            # Wedge: lead at x=0, wingmates staggered back and out.
            row = (b + 1) // 2
            side = 1 if b % 2 else -1
            origin = (round(-0.55 * row, 6), 0.0, round(0.45 * row * side, 6))
            body = _body(f"wing-{b}", origin)
            body["motion"] = {
                "type": "tumble-drift",
                "params": {
                    "velocity": [
                        round(lead_v[0] + _r(rng, -0.02, 0.02), 6),
                        round(lead_v[1] + _r(rng, -0.02, 0.02), 6),
                        0.0,
                    ],
                    "axis": [0.0, 0.0, 1.0],
                    "rate": 0.0,
                    "center": [origin[0] + 0.2, 0.0, origin[2]],
                    "bob_amplitude": _r(rng, 0.0, 0.04),
                    "bob_omega": _r(rng, 0.5, 1.5),
                    "bob_phase": _r(rng, 0.0, 3.0),
                },
            }
            bodies.append(body)

    # Domain: cover every body's reach over the run with padding.
    origins = np.array([b["grid"]["axis_origin"] for b in bodies])
    pad = 0.55
    lo = origins.min(axis=0) - np.array([pad, pad + 0.4, pad])
    hi = origins.max(axis=0) + np.array([0.45 + pad, pad, pad])
    payload: dict[str, Any] = {
        "schema": SCENARIO_SCHEMA,
        "name": f"{kind}-{seed}",
        "kind": kind,
        "seed": seed,
        "domain": {
            "lo": [round(float(x), 6) for x in lo],
            "hi": [round(float(x), 6) for x in hi],
        },
        "offbody": {
            "base_extent": 0.8,
            "points_per_patch": 4,
            "max_level": 2,
            "margin": 0.05,
            "max_brick_cells": 3,
        },
        "run": {
            "nsteps": 4,
            "dt": 0.05,
            "adapt_interval": 2,
            "machine": "sp2",
            "nodes": len(bodies) + 4,
            "grouping": "algorithm3",
        },
        "bodies": bodies,
    }
    return payload


# ----------------------------------------------------------------------
# serialisation


def scenario_json(payload: dict[str, Any]) -> str:
    return canonical_json(payload)


def write_scenario(payload: dict[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(scenario_json(payload))
    return path


_REQUIRED_KEYS = ("schema", "name", "kind", "domain", "offbody", "run", "bodies")


def validate_scenario(payload: Any) -> dict[str, Any]:
    """Structural validation; returns the payload or raises ScenarioError."""
    if not isinstance(payload, dict):
        raise ScenarioError(f"scenario must be a JSON object, got {type(payload).__name__}")
    missing = [k for k in _REQUIRED_KEYS if k not in payload]
    if missing:
        raise ScenarioError(f"scenario missing keys: {missing}")
    if payload["schema"] != SCENARIO_SCHEMA:
        raise ScenarioError(
            f"unsupported scenario schema {payload['schema']!r} "
            f"(expected {SCENARIO_SCHEMA!r})"
        )
    if not payload["bodies"]:
        raise ScenarioError("scenario has no bodies")
    for body in payload["bodies"]:
        if "grid" not in body or "motion" not in body or "name" not in body:
            raise ScenarioError(f"bad body entry {body!r}")
        _motion_from_spec(body["motion"])
    run = payload["run"]
    if run.get("grouping", "algorithm3") not in GROUPING_STRATEGIES:
        raise ScenarioError(
            f"unknown grouping {run.get('grouping')!r}; "
            f"choose from {GROUPING_STRATEGIES}"
        )
    try:
        machine_preset(run.get("machine", "sp2"), nodes=1)
    except ValueError as exc:
        raise ScenarioError(f"run block: {exc}") from None
    return payload


def load_scenario(path: str | Path) -> dict[str, Any]:
    import json

    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    return validate_scenario(payload)


# ----------------------------------------------------------------------
# case construction


def build_offbody_case(
    payload: dict[str, Any],
    nodes: int | None = None,
    nsteps: int | None = None,
    grouping: str | None = None,
) -> OffBodyCase:
    """Materialise an :class:`OffBodyCase` from a scenario payload.

    ``nodes``/``nsteps``/``grouping`` override the scenario's run
    block; the machine is its ``run.machine`` preset.
    """
    validate_scenario(payload)
    run = payload["run"]
    grids = []
    motions: dict[int, PrescribedMotion] = {}
    for gi, body in enumerate(payload["bodies"]):
        g = dict(body["grid"])
        g["axis_origin"] = tuple(g.get("axis_origin", (0.0, 0.0, 0.0)))
        grids.append(body_of_revolution_grid(body["name"], **g))
        motions[gi] = _motion_from_spec(body["motion"])
    off = payload["offbody"]
    return OffBodyCase(
        name=payload["name"],
        machine=machine_preset(
            run.get("machine", "sp2"), nodes or run["nodes"]
        ),
        near_body=tuple(grids),
        motions=motions,
        domain=AABB(payload["domain"]["lo"], payload["domain"]["hi"]),
        base_extent=off["base_extent"],
        points_per_patch=off.get("points_per_patch", 5),
        max_level=off.get("max_level", 2),
        margin=off.get("margin", 0.0),
        max_brick_cells=off.get("max_brick_cells", 3),
        nsteps=nsteps or run["nsteps"],
        dt=run["dt"],
        adapt_interval=run["adapt_interval"],
        grouping=grouping or run.get("grouping", "algorithm3"),
    )


def register_scenario_case(payload: dict[str, Any], source: str | Path | None = None):
    """Register a loaded scenario in the shared case registry.

    Returns the :class:`repro.cases.registry.CaseEntry`.  Re-loading the
    same name replaces the entry (the file is the source of truth).
    """
    from repro.cases import register_case

    validate_scenario(payload)
    return register_case(
        payload["name"],
        functools.partial(build_offbody_case, payload),
        kind="offbody",
        help=f"generated {payload['kind']} scenario (seed {payload.get('seed')})",
        replace=True,
        source=str(source) if source is not None else None,
    )
