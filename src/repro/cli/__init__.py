"""Command-line interface: run cases and regenerate tables.

Usage (installed as ``python -m repro``):

    python -m repro list
    python -m repro run airfoil --machine sp2 --nodes 12 --scale 0.5 --steps 5
    python -m repro run airfoil --backend mp --nodes 4 --scale 0.25
    python -m repro run airfoil --steps 60 --checkpoint-every 25 \
        --checkpoint-dir ckpts --fault rank=3@step=40
    python -m repro resume ckpts
    python -m repro sweep store --machine sp2 --nodes 16,28,52 --scale 0.1
    python -m repro trace airfoil --nodes 8 --scale 0.1 --steps 4
    python -m repro trace airfoil --trace-store /tmp/st --trends
    python -m repro run x38 --backend mp --trace-store /tmp/st
    python -m repro top /tmp/st --once
    python -m repro physics --scale 0.05 --steps 20
    python -m repro check src tests
    python -m repro run x38 --sanitize
    python -m repro bench all --quick
    python -m repro bench x38 --quick --compare
    python -m repro trace-diff benchmarks/baselines/BENCH_x38.json \
        benchmarks/results/BENCH_x38.json
    python -m repro serve --workers 4 --cache-dir /var/tmp/repro-cache
    python -m repro submit airfoil --nodes 8 --scale 0.1 --steps 5
    python -m repro jobs --stats
    python -m repro scenario --kind store-salvo --seed 7 --out scen.json
    python -m repro run --scenario scen.json --backend mp
    python -m repro trace --scenario scen.json
    python -m repro trace airfoil --trace-store /tmp/st --from-step 3
    python -m repro bench --scenario scen.json

``run``/``trace`` accept ``--backend {sim,mp,cluster}``: ``sim`` is the
deterministic discrete-event simulator (modeled virtual time, the
default and the only backend the CI gates compare); ``mp`` executes the
same rank programs on real ``multiprocessing`` processes and reports
measured wall time — physics (Q fields, IGBP counts) are identical by
construction and cross-checked by the backend test batteries;
``cluster`` spreads them over node daemons.

``run`` executes one OVERFLOW-D1 simulation and prints the paper's
per-run statistics; with ``--fault`` / ``--checkpoint-every`` /
``--checkpoint-dir`` it exercises the resilience machinery
(:mod:`repro.resilience`): injected fail-stop faults, periodic
checkpoints and elastic recovery.  With ``--sanitize`` the run is
shadowed by the SimMPI sanitizer (:mod:`repro.analysis`), which
reports wildcard message races, tag collisions, collective mismatches
and finalize leaks without changing virtual time; ``check`` runs the
project's static checker (rules ``RPR001``-``RPR015``: per-file
determinism rules plus whole-program comm-protocol and lock-discipline
rules) over source trees.  Both exit non-zero when findings remain.  ``resume`` continues a run from a
checkpoint file (or the newest checkpoint in a directory).  ``sweep``
produces a Table-1-style speedup table over several node counts;
``trace`` runs one simulation with per-rank span tracing enabled and
dumps a Chrome ``trace_event`` JSON, a CSV rollup and an ASCII per-rank
timeline (see docs/observability.md); ``physics`` runs the real coupled
2-D solver on the oscillating-airfoil system.

``bench`` runs the performance-observatory harness
(:mod:`repro.obs.perf`): each case executes once on ``sim`` under the
span tracer and sanitizer, is analyzed for critical path, comm matrix
and f(p)=I(p)/Ibar imbalance, and lands as schema-versioned, fully
deterministic canonical ``BENCH_<case>.json``; ``--compare``
trace-diffs each fresh payload against ``benchmarks/baselines/`` in the
same invocation — the CI perf gate.  ``trace-diff`` classifies
per-metric deltas between any two such payloads and exits non-zero on
regressions beyond tolerance.  Host wall time and the measured backends
are benchmarked by ``python -m benchmarks.perf``, not here.

``scenario`` generates a seeded multi-body off-body case file
(:mod:`repro.offbody`): randomized store salvos, tumbling debris or
formation flights as canonical ``repro-scenario/1`` JSON.
``run``/``trace``/``bench`` accept ``--scenario FILE`` to execute such
a file with the adaptive off-body driver (Algorithm 3 grouping; see
docs/offbody.md) instead of a built-in case.  ``trace --from-step N``
replays only steps ``N..`` from a trace store using the index's
per-step byte offsets.

``serve`` starts the simulation-as-a-service daemon
(:mod:`repro.serve`): a pool of warm worker processes executes queued
jobs over a unix socket, with ``config_sha``-keyed result caching so
identical deterministic submissions are answered byte-identically for
free; ``submit`` and ``jobs`` are the matching clients.  See
docs/serving.md.

Layout: one module per command family, each declaring its sub-parsers
in ``register(sub)`` next to its ``cmd_*`` handlers — thin shells over
library entry points.  :func:`main` is the one place typed user-input
errors become a one-line exit message.
"""

from __future__ import annotations

import argparse

from repro.cli import bench, check, run, serve, trace

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Parallel dynamic overset grid methods (SC 1997) "
        "reproduction",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for family in (run, trace, bench, check, serve):
        family.register(sub)
    return p


def _user_errors() -> tuple[type[BaseException], ...]:
    """Errors that mean "bad input or environment", not "bug": they end
    the command with their message and exit status 1.  ``ValueError``
    covers the typed input errors (``UnknownCaseError``,
    ``ScenarioError``, ``JobSpecError``, ``BaselineError``,
    ``ClusterProtocolError``) and machine / case-builder / partition
    validation; ``StoreCorruptionError`` a damaged or old-format trace
    store.  Everything else (``TypeError``, ``KeyError``,
    ``RankFailure``, ``DeadlockError``, ...) keeps its traceback."""
    from repro.backend import BackendUnavailable
    from repro.obs.store import StoreCorruptionError
    from repro.resilience import CheckpointError
    from repro.serve import ServeError

    return (ValueError, OSError, CheckpointError, BackendUnavailable,
            ServeError, StoreCorruptionError)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _user_errors() as exc:
        raise SystemExit(str(exc))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
