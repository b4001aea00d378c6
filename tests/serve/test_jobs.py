"""Job identity: spec validation, sha semantics, wire round trips.

Includes the ``config_sha`` property battery (Hypothesis): the sha is
invariant under dict key order and distinguishes every single-knob
change — the two facts the result cache's correctness rests on.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.perf.bench import canonical_json, config_sha
from repro.serve import JobSpec, JobSpecError, run_job, run_job_bytes

from tests.serve.conftest import CRASH, CRASH_ONCE, fault_spec, tiny_spec


class TestJobSpec:
    def test_defaults_round_trip(self):
        spec = JobSpec("airfoil")
        again = JobSpec.from_dict(spec.to_wire())
        assert again == spec
        assert again.sha() == spec.sha()

    def test_wire_survives_json_round_trip_sha_intact(self):
        """f0=inf must survive strict JSON encode/decode."""
        spec = tiny_spec(f0=math.inf)
        wire = json.loads(json.dumps(spec.to_wire(), allow_nan=False))
        assert JobSpec.from_dict(wire).sha() == spec.sha()

    def test_finite_f0_round_trip(self):
        spec = tiny_spec(f0=2.5)
        assert JobSpec.from_dict(spec.to_wire()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(JobSpecError, match="unknown job field"):
            JobSpec.from_dict({"case": "airfoil", "tpyo": 1})

    def test_non_dict_rejected(self):
        with pytest.raises(JobSpecError, match="must be an object"):
            JobSpec.from_dict(["airfoil"])

    def test_missing_case_rejected(self):
        with pytest.raises(JobSpecError, match="string 'case'"):
            JobSpec.from_dict({"nodes": 4})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("nodes", "four"),
            ("nodes", True),
            ("nsteps", 2.5),
            ("scale", "big"),
            ("f0", "huge"),
            ("machine", 7),
            ("backend", 7),
            ("inject", 3),
        ],
    )
    def test_bad_field_types_rejected(self, field, value):
        data = {"case": "airfoil", field: value}
        with pytest.raises(JobSpecError):
            JobSpec.from_dict(data)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(nodes=0), dict(nsteps=0), dict(scale=0.0), dict(scale=-1.0)],
    )
    def test_bad_ranges_rejected(self, kwargs):
        with pytest.raises(JobSpecError):
            JobSpec("airfoil", **kwargs)

    @pytest.mark.parametrize("f0", ["nan", "-inf", -1, 0, 0.0])
    def test_non_positive_or_nan_f0_rejected_at_submit(self, f0):
        with pytest.raises(JobSpecError, match="f0 must be > 0"):
            JobSpec.from_dict({"case": "airfoil", "f0": f0})

    def test_unknown_names_rejected_at_boundary(self):
        for bad in (
            dict(case="nosuch"),
            dict(case="airfoil", machine="cray-3"),
            dict(case="airfoil", backend="gpu"),
        ):
            with pytest.raises(JobSpecError, match="unknown"):
                JobSpec.from_dict(bad)

    def test_unknown_inject_rejected(self):
        """The wire carries no test hooks: ``inject`` is an unknown field."""
        with pytest.raises(JobSpecError, match="unknown job field"):
            JobSpec.from_dict({"case": "airfoil", "inject": "crash"})

    def test_inject_participates_in_sha(self):
        """A test's fault-injected job must never alias its clean twin
        in the cache: the fault sentinel is ``f0``, which the sha
        covers."""
        clean = tiny_spec()
        assert fault_spec(CRASH).sha() != clean.sha()
        assert fault_spec(CRASH_ONCE).sha() != clean.sha()

    def test_deterministic_flag(self):
        assert tiny_spec(backend="sim").deterministic
        assert not tiny_spec(backend="mp").deterministic


class TestRunJob:
    def test_payload_shape(self):
        payload = run_job(tiny_spec())
        assert payload["schema"] == "repro-serve-result/1"
        assert payload["deterministic"] is True
        assert payload["job_sha"] == tiny_spec().sha()
        result = payload["result"]
        assert result["nranks"] == 3
        assert result["nsteps"] == 1
        assert result["elapsed_s"] > 0
        assert result["phases"]
        assert result["imbalance"]["f_max"] >= 1.0

    def test_bytes_are_reproducible(self):
        a = run_job_bytes(tiny_spec())
        b = run_job_bytes(tiny_spec())
        assert a == b

    def test_serve_payload_sha_unchanged(self):
        """Refactors of the resolution / summary path must not move a
        served payload byte (regenerate only with a deliberate
        simulated-time change, like the BENCH baselines)."""
        import hashlib

        assert hashlib.sha256(run_job_bytes(tiny_spec())).hexdigest() == (
            "1c4322ce764238987f01be14b30d489042adc90a2b01867cfecb5dcac70cc1c7"
        )

    def test_bytes_are_canonical_json(self):
        payload = run_job_bytes(tiny_spec())
        assert payload.endswith(b"\n")
        assert canonical_json(json.loads(payload)).encode() == payload



# ----------------------------------------------------------------------
# config_sha property battery (Hypothesis)

_KNOBS = st.fixed_dictionaries(
    {
        "case": st.sampled_from(["airfoil", "x38", "store", "deltawing"]),
        "machine": st.sampled_from(["sp2", "ymp"]),
        "nodes": st.integers(min_value=1, max_value=512),
        "scale": st.floats(
            min_value=1e-3, max_value=10.0,
            allow_nan=False, allow_infinity=False,
        ),
        "nsteps": st.integers(min_value=1, max_value=1000),
        "backend": st.sampled_from(["sim", "mp"]),
    }
)


class TestConfigShaProperties:
    @given(cfg=_KNOBS, seed=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_key_order(self, cfg, seed):
        keys = list(cfg)
        seed.shuffle(keys)
        shuffled = {k: cfg[k] for k in keys}
        assert config_sha(shuffled) == config_sha(cfg)

    @given(cfg=_KNOBS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_distinguishes_any_single_knob_change(self, cfg, data):
        knob = data.draw(st.sampled_from(sorted(cfg)), label="knob")
        mutated = dict(cfg)
        if isinstance(cfg[knob], str):
            mutated[knob] = cfg[knob] + "~"
        elif isinstance(cfg[knob], int):
            mutated[knob] = cfg[knob] + 1
        else:
            mutated[knob] = cfg[knob] * 2.0 + 1.0
        assert config_sha(mutated) != config_sha(cfg)

    @given(cfg=_KNOBS)
    @settings(max_examples=30, deadline=None)
    def test_jobspec_sha_matches_raw_config_sha(self, cfg):
        """JobSpec adds no hidden knobs: its sha IS config_sha(config)."""
        spec = JobSpec(f0=float("inf"), **cfg)
        expected = dict(cfg)
        expected["f0"] = float("inf")
        expected["scale"] = float(expected["scale"])
        assert spec.sha() == config_sha(expected)

    @given(cfg=_KNOBS)
    @settings(max_examples=30, deadline=None)
    def test_sha_survives_wire_round_trip(self, cfg):
        spec = JobSpec(f0=float("inf"), **cfg)
        wire = json.loads(json.dumps(spec.to_wire(), allow_nan=False))
        assert JobSpec.from_dict(wire).sha() == spec.sha()


class TestWarmBackends:
    def test_close_warm_backends_drains_and_tolerates_errors(self):
        from repro.serve import jobs

        closed = []

        class Good:
            def close(self):
                closed.append("good")

        class Bad:
            def close(self):
                raise RuntimeError("boom")

        jobs._WARM_BACKENDS.update({"a": Good(), "b": Bad()})
        try:
            jobs.close_warm_backends()
            assert closed == ["good"]
            assert jobs._WARM_BACKENDS == {}
        finally:
            jobs._WARM_BACKENDS.clear()

    def test_job_backend_caches_only_cluster(self):
        from repro.serve.jobs import _WARM_BACKENDS, _job_backend

        assert _WARM_BACKENDS == {}
        eng = _job_backend("sim")
        assert eng.name == "sim"
        assert _WARM_BACKENDS == {}  # sim engines are throwaways
        assert _job_backend("sim") is not eng
