"""One epoch runner, two workloads: the resilience contract holds on both.

Every test runs once on the near-body airfoil case (``OverflowD1``) and
once on a seeded off-body debris scenario (``OffBodyDriver``); both go
through :class:`repro.core.runner.EpochRunner`, so a behaviour that
only one of them shows is a bug in the seam.
"""

import pickle

import numpy as np
import pytest

from repro.backend import SimBackend
from repro.backend.mp import mp_available
from repro.cases import airfoil_case
from repro.core import build_driver, resume_run
from repro.machine import sp2
from repro.machine.faults import RankFailure
from repro.obs import SpanTracer
from repro.offbody import OffBodyCase, build_offbody_case, generate_scenario
from repro.resilience import CheckpointStore

NSTEPS = 4


def airfoil():
    # f0 = inf: one epoch covers all four steps.
    return airfoil_case(machine=sp2(nodes=6), scale=0.05, nsteps=NSTEPS)


def debris():
    # Two adapt epochs (the generator's adapt_interval is 2): steps
    # 0-1 and 2-3.
    return build_offbody_case(
        generate_scenario("debris", seed=5, nbodies=3), nsteps=NSTEPS
    )


@pytest.fixture(params=[airfoil, debris])
def target(request):
    return request.param()


def last_rank(target) -> int:
    """Always expendable: the last off-body group / airfoil subdomain."""
    return target.machine.nodes - 1


def faulted(target, trigger, **kw):
    return build_driver(
        target, fault_plan=[f"rank={last_rank(target)}@{trigger}"], **kw
    )


#: trigger -> measured step the failed chunk started at, (airfoil,
#: debris).  ``phase=7`` is step 2's motion barrier: the off-body copy
#: of the fault plumbing never localised phase triggers, so past the
#: first adapt epoch they silently never fired.
TRIGGERS = {
    "step=3": (0, 2),
    "t=0.05": (0, 0),
    "phase=1": (0, 0),
    "phase=7": (0, 2),
}


@pytest.mark.parametrize("trigger", sorted(TRIGGERS))
def test_trigger_fires_exactly_once(target, trigger):
    run = faulted(target, trigger).run()
    assert len(run.recoveries) == 1
    rec = run.recoveries[0]
    assert rec.failed_ranks == (last_rank(target),)
    assert rec.nprocs_after == rec.nprocs_before - 1
    assert rec.step_failed == TRIGGERS[trigger][isinstance(target, OffBodyCase)]
    assert rec.step_restored == 0  # the implicit step-0 restore point
    assert sum(e.nsteps for e in run.epochs) == NSTEPS


def test_exhausted_recovery_budget_reraises(target, monkeypatch):
    monkeypatch.setattr("repro.resilience.recovery.MAX_RECOVERIES", 0)
    with pytest.raises(RankFailure):
        faulted(target, "step=1").run()


@pytest.mark.skipif(mp_available() is not None, reason=str(mp_available()))
@pytest.mark.parametrize(
    "option", [{"sanitizer": object()}, {"fault_plan": ["rank=1@step=0"]}]
)
def test_sim_only_options_rejected_on_real_ranks(target, option):
    with pytest.raises(ValueError, match="needs the deterministic simulator"):
        build_driver(target, backend="mp", **option)


def test_recovery_episode_order_in_trace(target):
    tracer = SpanTracer()
    faulted(target, "step=1", tracer=tracer).run()
    marks = {name: t for t, name, _ in tracer.marks}
    first = {}
    for _rank, t, phase in tracer.phase_marks:
        first.setdefault(phase, t)
    episode = [
        marks["recovery"],
        first["failure-detection"],
        first["restore"],
        first["repartition"],
        marks["recovered"],
    ]
    assert episode == sorted(episode)
    assert episode[0] < episode[-1]


class _Capture(SimBackend):
    """The simulator, keeping the rank programs it was handed."""

    def __init__(self):
        self.programs = []

    def run(self, machine, programs, **kw):
        self.programs.append(programs[0])
        return super().run(machine, programs, **kw)


def test_rank_program_ships_with_one_world(target):
    """A cluster node rebuilds a rank program from one plain pickle.
    Its data travels in that one pickle, so the world and the case stay
    one object, as under fork; a second copy of the world would see
    grids that never move and a second copy of the cache would never
    warm."""
    engine = _Capture()
    build_driver(target, backend=engine).run()
    program = pickle.loads(pickle.dumps(engine.programs[-1]))
    data = program.keywords
    world, case = data["world"], data.get("cfg") or data["case"]
    assert (getattr(world, "config", None) or world.case) is case


def test_downtime_accounting(target):
    run = faulted(target, "step=3").run()
    assert run.downtime == sum(r.downtime for r in run.recoveries) > 0
    assert run.wall_elapsed >= run.elapsed + run.downtime


def test_resume_after_recovery_reproduces_the_run(target, tmp_path):
    """The newest checkpoint of a recovered run is the post-recovery
    snapshot; resuming it goes through the same restore path as the
    recovery did and finishes the run the same way."""
    store = CheckpointStore(tmp_path)
    # Checkpoint at step 2, fault in step 3: the recovery restores step
    # 2 and its snapshot replaces that file as the newest.
    run = faulted(
        target, "step=3", checkpoint_every=2, checkpoint_store=store
    ).run()
    assert len(run.recoveries) == 1
    newest = store.latest()
    assert newest.meta["recoveries"] == 1
    assert list(newest.sections) == ["config", "driver"]
    resumed = resume_run(newest)
    assert resumed.recoveries == run.recoveries
    assert resumed.wall_elapsed == run.wall_elapsed
    assert len(resumed.epochs) == len(run.epochs)
    for a, b in zip(resumed.epochs, run.epochs):
        assert (a.first_step, a.nsteps, a.elapsed) == (
            b.first_step, b.nsteps, b.elapsed
        )
        assert a.rollup.summary() == b.rollup.summary()
        assert np.array_equal(a.igbp.per_step(), b.igbp.per_step())
        assert (a.search_steps_total, a.orphans_total) == (
            b.search_steps_total, b.orphans_total
        )
