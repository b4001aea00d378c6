"""Hypothesis property: job interleavings never change result bytes.

Hypothesis generates arbitrary submission schedules — which job, which
client, cache on/off, with failure-injected jobs interleaved between
deterministic ones — and the property asserts every deterministic
job's payload equals its direct :func:`run_job_bytes`, regardless of
schedule.  One warm daemon serves all examples (that's the point:
state accumulated by earlier examples must not leak into later ones).
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import (
    JobFailedError,
    ReproServer,
    ServeClient,
    run_job_bytes,
)

from tests.serve.conftest import (
    CRASH_ONCE,
    ERROR,
    faulty_run_job_bytes,
    fault_spec,
    tiny_spec,
)

# The deterministic job palette: 3 distinct tiny jobs ...
_SPECS = [tiny_spec(nsteps=n) for n in (1, 2, 3)]
# ... and failure-injected intruders scheduled between them.
_INTRUDERS = [fault_spec(ERROR), fault_spec(CRASH_ONCE)]

_expected_cache: dict[int, bytes] = {}


def _expected(idx: int) -> bytes:
    # Lazy so collecting this module never runs simulations.
    if idx not in _expected_cache:
        _expected_cache[idx] = run_job_bytes(_SPECS[idx])
    return _expected_cache[idx]

# One schedule step: (job index, use_cache) — negative indices pick an
# intruder.
_STEP = st.tuples(
    st.integers(min_value=-len(_INTRUDERS), max_value=len(_SPECS) - 1),
    st.booleans(),
)


@pytest.fixture(scope="module")
def warm_server(tmp_path_factory):
    import tempfile

    path = tempfile.mktemp(prefix="rsv-hyp-", suffix=".sock", dir="/tmp")
    marker = tmp_path_factory.mktemp("faults") / "crashed"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            "repro.serve.pool.run_job_bytes", faulty_run_job_bytes(str(marker))
        )
        srv = ReproServer(path, workers=2, job_timeout=60.0)
        srv.start()
        yield srv
        srv.shutdown(drain_timeout=10.0)


class TestInterleavingProperty:
    @given(schedule=st.lists(_STEP, min_size=1, max_size=8))
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_schedule_preserves_deterministic_bytes(
        self, warm_server, schedule
    ):
        with ServeClient(warm_server.socket_path, timeout=120.0) as c:
            for idx, use_cache in schedule:
                if idx < 0:
                    spec = _INTRUDERS[-idx - 1]
                    try:
                        c.run(spec, cache=use_cache, timeout=90)
                    except JobFailedError:
                        pass  # intruders may fail; must not corrupt
                    continue
                spec = _SPECS[idx]
                rec = c.run(spec, cache=use_cache, timeout=90)
                assert rec["state"] == "done"
                payload = rec["payload"].encode()
                assert payload == _expected(idx), (
                    f"schedule {schedule} changed bytes of job {idx} "
                    f"(cached={rec['cached']})"
                )
                assert json.loads(payload)["job_sha"] == spec.sha()
