"""Cross-backend byte-identity for the off-body driver.

The physics signature — per-epoch IGBP series, donor counts, orphan
counts, patch populations — must serialize byte-identically whether the
rank programs execute on the deterministic simulator or on real
multiprocessing ranks.  Connectivity is derived from absolute time on
every rank, so there is nothing rank-private to drift.
"""

import pytest

from repro.cases import x38_offbody_case
from repro.machine import sp2
from repro.obs.perf.bench import canonical_json
from repro.offbody import OffBodyDriver, build_offbody_case, generate_scenario


def small_case():
    payload = generate_scenario("store-salvo", seed=3, nbodies=2)
    return build_offbody_case(payload, nsteps=2)


def x38_case():
    return x38_offbody_case(sp2(nodes=5), scale=0.05, nsteps=2)


@pytest.mark.mp
class TestMultiprocessing:
    def test_mp_matches_sim_byte_for_byte(self):
        for make_case in (small_case, x38_case):
            sim = OffBodyDriver(make_case(), backend="sim").run()
            mp = OffBodyDriver(make_case(), backend="mp").run()
            assert canonical_json(mp.physics_signature()) == canonical_json(
                sim.physics_signature()
            )

    def test_mp_reports_measured_time(self):
        r = OffBodyDriver(small_case(), backend="mp").run()
        assert r.elapsed > 0
        assert r.nsteps == 2
