"""Seeded scenario generator: determinism, schema, case construction."""

import json

import pytest

from repro.offbody import (
    SCENARIO_KINDS,
    SCENARIO_SCHEMA,
    ScenarioError,
    build_offbody_case,
    generate_scenario,
    load_scenario,
    scenario_json,
    write_scenario,
)


class TestGenerate:
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_same_seed_same_bytes(self, kind):
        a = scenario_json(generate_scenario(kind, seed=11))
        b = scenario_json(generate_scenario(kind, seed=11))
        assert a == b

    def test_different_seeds_differ(self):
        a = scenario_json(generate_scenario("debris", seed=1))
        b = scenario_json(generate_scenario("debris", seed=2))
        assert a != b

    def test_payload_shape(self):
        payload = generate_scenario("formation", seed=5, nbodies=3)
        assert payload["schema"] == SCENARIO_SCHEMA
        assert payload["kind"] == "formation"
        assert payload["seed"] == 5
        assert len(payload["bodies"]) == 3
        assert payload["run"]["nodes"] >= len(payload["bodies"]) + 1
        # Canonical form is plain sorted-key JSON.
        blob = scenario_json(payload)
        assert blob == json.dumps(
            json.loads(blob), sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError, match="kind"):
            generate_scenario("kitchen-sink", seed=1)

    def test_bad_nbodies_rejected(self):
        with pytest.raises(ScenarioError):
            generate_scenario("debris", seed=1, nbodies=0)


class TestRoundtrip:
    def test_write_load_roundtrip(self, tmp_path):
        payload = generate_scenario("store-salvo", seed=7)
        path = write_scenario(payload, tmp_path / "s.json")
        assert load_scenario(path) == payload

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        with pytest.raises(ScenarioError):
            load_scenario(bad)
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "missing.json")

    def test_load_rejects_wrong_schema(self, tmp_path):
        payload = generate_scenario("debris", seed=3)
        payload["schema"] = "repro-scenario/999"
        p = tmp_path / "s.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(ScenarioError, match="schema"):
            load_scenario(p)

    def test_load_rejects_missing_sections(self, tmp_path):
        payload = generate_scenario("debris", seed=3)
        del payload["bodies"]
        p = tmp_path / "s.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(ScenarioError):
            load_scenario(p)


    @pytest.mark.parametrize("machine, error, match", [
        ("bogus", ScenarioError, "unknown machine 'bogus'"),
        # The single-processor head: a valid preset no off-body case fits.
        ("ymp", ValueError, "need >= "),
    ])
    def test_run_machine_is_validated(self, tmp_path, machine, error, match):
        """A scenario file's ``run.machine`` is outside input: a bad
        name was a raw KeyError, ``ymp`` a TypeError."""
        payload = generate_scenario("debris", seed=3)
        payload["run"]["machine"] = machine
        p = tmp_path / "s.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(error, match=match):
            build_offbody_case(load_scenario(p))


class TestBuildCase:
    def test_case_follows_run_block(self):
        payload = generate_scenario("store-salvo", seed=7)
        case = build_offbody_case(payload)
        run = payload["run"]
        assert case.name == payload["name"]
        assert case.nsteps == run["nsteps"]
        assert case.machine.nodes == run["nodes"]
        assert case.grouping == run["grouping"]
        assert case.n_near == len(payload["bodies"])
        assert set(case.motions) == set(range(case.n_near))

    def test_overrides_win(self):
        payload = generate_scenario("store-salvo", seed=7)
        case = build_offbody_case(
            payload, nodes=9, nsteps=2, grouping="roundrobin"
        )
        assert case.machine.nodes == 9
        assert case.nsteps == 2
        assert case.grouping == "roundrobin"

    def test_motion_is_prescribed_and_deterministic(self):
        payload = generate_scenario("debris", seed=9, nbodies=1)
        a = build_offbody_case(payload)
        b = build_offbody_case(payload)
        xa = a.motions[0].at(0.1).apply(a.near_body[0].xyz)
        xb = b.motions[0].at(0.1).apply(b.near_body[0].xyz)
        assert (xa == xb).all()
        # And it actually moves.
        assert (xa != a.near_body[0].xyz).any()

