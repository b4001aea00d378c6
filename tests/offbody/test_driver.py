"""OffBodyDriver end-to-end on the simulator.

The load-bearing assertion lives here: on a seeded multi-body scenario,
Algorithm 3's connectivity-aware grouping moves strictly fewer DCF3D
bytes between ranks than naive round-robin (the paper's motivation for
grouping), measured through the same CommMatrix analytics the perf
observatory uses — not through grouping-internal counters.
"""

import pytest

from repro.machine.faults import RankFailure
from repro.obs import SpanTracer
from repro.obs.perf.comm_matrix import CommMatrix
from repro.offbody import (
    OffBodyDriver,
    build_offbody_case,
    generate_scenario,
)
from repro.obs.perf.bench import canonical_json

SCENARIO = generate_scenario("store-salvo", seed=7)


def small_case(**kw):
    payload = generate_scenario("store-salvo", seed=3, nbodies=2)
    return build_offbody_case(payload, **kw)


class TestRun:
    def test_end_to_end(self):
        case = small_case(nsteps=2)
        r = OffBodyDriver(case).run()
        assert r.nsteps == 2
        assert len(r.epochs) == 1
        assert r.elapsed > 0
        assert 0 < r.pct_dcf3d < 100
        assert r.mflops_per_node > 0
        assert r.partition_history
        e = r.epochs[0]
        assert e.npatches > 0 and e.created == e.npatches
        assert e.donors_total > 0 and e.search_steps_total > 0
        assert e.cut_edges + e.intra_edges > 0

    def test_adapt_interval_splits_epochs(self):
        case = small_case(nsteps=4)
        assert case.adapt_interval == 2
        r = OffBodyDriver(case).run()
        assert [e.first_step for e in r.epochs] == [0, 2]
        assert sum(e.nsteps for e in r.epochs) == 4

    def test_physics_signature_deterministic(self):
        a = OffBodyDriver(small_case(nsteps=2)).run()
        b = OffBodyDriver(small_case(nsteps=2)).run()
        assert canonical_json(a.physics_signature()) == canonical_json(
            b.physics_signature()
        )

    def test_offbody_trace_phases_present(self):
        tracer = SpanTracer()
        OffBodyDriver(small_case(nsteps=2), tracer=tracer).run()
        phases = {op[1] for op in tracer.ops}
        assert {"offbody:regen", "offbody:group", "overflow",
                "motion", "dcf3d"} <= phases
        mark_names = {m[1] for m in tracer.marks}
        assert {"offbody:regen", "offbody:group"} <= mark_names


class TestAlgorithm3Wins:
    """Algorithm 3 vs round-robin on the same scenario, same analytics."""

    @pytest.fixture(scope="class")
    def matrices(self):
        out = {}
        for strategy in ("algorithm3", "roundrobin"):
            case = build_offbody_case(SCENARIO, grouping=strategy)
            tracer = SpanTracer()
            run = OffBodyDriver(case, tracer=tracer).run()
            comm = CommMatrix.from_tracer(
                tracer, nranks=case.machine.nodes
            )
            out[strategy] = (run, comm)
        return out

    def test_alg3_moves_fewer_dcf3d_bytes(self, matrices):
        alg3 = matrices["algorithm3"][1].bytes_matrix("dcf3d").sum()
        rr = matrices["roundrobin"][1].bytes_matrix("dcf3d").sum()
        assert alg3 < rr

    def test_alg3_cuts_fewer_donor_points(self, matrices):
        for e3, er in zip(
            matrices["algorithm3"][0].epochs,
            matrices["roundrobin"][0].epochs,
        ):
            assert e3.cut_points <= er.cut_points
            assert e3.intra_edges >= er.intra_edges

    def test_alg3_balance_no_worse(self, matrices):
        tau3 = max(e.balance_tau for e in matrices["algorithm3"][0].epochs)
        taur = max(e.balance_tau for e in matrices["roundrobin"][0].epochs)
        assert tau3 <= taur

    def test_identical_physics_across_strategies(self, matrices):
        """Grouping moves work between ranks; it must not change IGBPs."""
        a = matrices["algorithm3"][0]
        r = matrices["roundrobin"][0]
        assert [e.igbp.accumulated().sum() for e in a.epochs] == [
            e.igbp.accumulated().sum() for e in r.epochs
        ]
        assert [e.donors_total for e in a.epochs] == [
            e.donors_total for e in r.epochs
        ]


class TestRecovery:
    def test_offbody_rank_failure_shrinks_and_completes(self):
        case = small_case(nsteps=4, nodes=6)  # 2 near-body + 4 groups
        fail_rank = case.n_near + 1
        r = OffBodyDriver(
            case, fault_plan=[f"rank={fail_rank}@step=1"]
        ).run()
        assert r.nsteps == 4
        assert len(r.recoveries) == 1
        rec = r.recoveries[0]
        assert rec.failed_ranks == (fail_rank,)
        assert rec.nprocs_after == rec.nprocs_before - 1
        assert r.downtime > 0
        # Post-recovery epochs regroup onto fewer ranks.
        assert len(r.partition_history[-1][1]) <= rec.nprocs_after

    def test_near_body_rank_failure_is_fatal(self):
        case = small_case(nsteps=2, nodes=6)
        with pytest.raises(RankFailure):
            OffBodyDriver(case, fault_plan=["rank=0@step=0"]).run()

    def test_cannot_shrink_below_one_group(self):
        case = small_case(nsteps=2, nodes=3)  # 2 near-body + 1 group
        with pytest.raises(RankFailure):
            OffBodyDriver(
                case, fault_plan=[f"rank={case.n_near}@step=0"]
            ).run()


class TestValidation:
    def test_unknown_grouping_rejected(self):
        with pytest.raises(ValueError, match="grouping"):
            small_case(grouping="metis")

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            small_case(nodes=2)  # 2 near-body grids need >= 3
