"""``serve`` / ``submit`` / ``jobs`` / ``node``: the job-server daemon,
its clients, and the cluster node daemon."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.cli import _common as c


def _serve_tracer(args: argparse.Namespace) -> Any:
    """The daemon's ``--trace-store`` recorder (or None)."""
    if not args.trace_store:
        return None
    from repro.obs.store import StoreTracer

    # Dispatcher threads record concurrently and jobs are not solver
    # steps, so flush by record count to keep a live `repro top` current.
    tracer = StoreTracer(
        args.trace_store,
        meta={"component": "serve", "workers": args.workers},
        fresh=True,
        flush_every=20,
    )
    tracer.clock = "wall"
    return tracer


def _serve_until_drained(server: Any, banner: str) -> None:
    """Start ``server`` and block until SIGTERM / Ctrl-C drained it."""
    import signal
    import threading

    drainers: list[threading.Thread] = []

    def _drain(signum: int, frame: Any) -> None:
        print("draining ...", file=sys.stderr)
        t = threading.Thread(target=server.shutdown)
        t.start()
        drainers.append(t)

    server.start()
    # Installed only after start(): the warm workers fork inside
    # start(), and they must not inherit the daemon's drain handler
    # (a process-group SIGTERM/SIGINT would run shutdown in every
    # child against its forked copy of the server).
    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    print(banner, file=sys.stderr)
    server.wait()
    for t in drainers:
        t.join()


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.backend.mp import mp_available
    from repro.serve import ReproServer

    reason = mp_available()
    if reason is not None:
        raise SystemExit(f"repro serve unavailable: {reason}")
    tracer = _serve_tracer(args)
    server = ReproServer(
        args.socket, workers=args.workers, cache_dir=args.cache_dir,
        job_timeout=args.job_timeout, max_retries=args.max_retries,
        tracer=tracer,
    )
    _serve_until_drained(
        server,
        f"repro serve: {args.workers} warm worker(s) on {args.socket} "
        f"(cache: {args.cache_dir or 'memory-only'}); "
        f"SIGTERM/Ctrl-C drains and exits",
    )
    if tracer is not None:
        tracer.close()
        print(
            f"repro serve: trace store closed ({tracer.records} records "
            f"in {args.trace_store})",
            file=sys.stderr,
        )
    print("repro serve: stopped", file=sys.stderr)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import JobFailedError, JobSpec, ServeClient

    spec = JobSpec(
        case=args.case, machine=args.machine, nodes=args.nodes,
        scale=args.scale, nsteps=args.steps, f0=args.f0,
        backend=args.backend,
    )
    spec.check_runnable()
    with ServeClient(args.socket) as client:
        try:
            if args.no_wait:
                rec = client.submit(spec, cache=not args.no_cache)
            else:
                rec = client.run(
                    spec, cache=not args.no_cache, timeout=args.timeout
                )
        except JobFailedError as exc:
            print(f"job failed: {exc}", file=sys.stderr)
            if exc.detail:
                print(
                    json.dumps(exc.detail, indent=2, sort_keys=True),
                    file=sys.stderr,
                )
            return 1
    if args.json:
        print(json.dumps(rec, indent=2, sort_keys=True))
        return 0
    hit = " (cache hit)" if rec.get("cached") else ""
    retried = rec.get("attempts", 0) > 1
    print(
        f"job {rec['id']} [{rec['sha'][:12]}] {rec['case']} "
        f"({rec['backend']}): {rec['state']}{hit}"
        + (f" after {rec['attempts']} attempt(s)" if retried else "")
    )
    if rec.get("payload"):
        blob = json.loads(rec["payload"])
        measured = not blob.get("deterministic")
        print("  " + c.summary_line(blob["result"], measured))
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    with ServeClient(args.socket) as client:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        jobs = client.jobs()
    if args.json:
        print(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        flags = []
        if job.get("cached"):
            flags.append("cache-hit")
        if job.get("attempts", 0) > 1:
            flags.append(f"{job['attempts']} attempts")
        if job.get("error"):
            flags.append(job["error"]["kind"])
        suffix = f" ({', '.join(flags)})" if flags else ""
        print(
            f"{job['id']:>4}  {job['sha'][:12]}  {job['case']:<10} "
            f"{job['backend']:<4} {job['state']}{suffix}"
        )
    return 0


def cmd_node(args: argparse.Namespace) -> int:
    from repro.cluster.node import NodeDaemon
    from repro.cluster.protocol import parse_hostport

    host, port = parse_hostport(args.connect)
    try:
        return NodeDaemon(host, port, name=args.name).run()
    except KeyboardInterrupt:
        return 130


def register(sub: Any) -> None:
    serve = sub.add_parser(
        "serve",
        help="long-lived job server: warm worker pool + result cache "
        "over a unix socket",
    )
    c.socket_opt(serve)
    serve.add_argument(
        "--workers", type=int, default=2,
        help="warm worker processes (default 2)",
    )
    serve.add_argument(
        "--cache-dir", metavar="DIR",
        help="persist cached results to DIR (default: memory only)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=300.0, metavar="S",
        help="per-job wall-clock budget in seconds (default 300)",
    )
    serve.add_argument(
        "--max-retries", type=int, default=2,
        help="retries after a worker crash (default 2)",
    )
    c.trace_store_opt(serve)
    serve.set_defaults(fn=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit one job to a running 'repro serve' daemon"
    )
    c.common(submit)
    submit.add_argument("--nodes", type=int, default=4)
    # No --cluster-nodes: the daemon's workers own their engines.
    c.backend_opt(submit, cluster=False)
    c.socket_opt(submit)
    submit.add_argument(
        "--no-wait", action="store_true",
        help="enqueue and return immediately (poll with 'repro jobs')",
    )
    submit.add_argument(
        "--no-cache", action="store_true",
        help="force a fresh execution even when the result is cached",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help="seconds to wait for the result (default 300)",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="print the full result frame as JSON",
    )
    submit.set_defaults(fn=cmd_submit)

    jobs = sub.add_parser(
        "jobs", help="list the daemon's jobs (or --stats for counters)"
    )
    c.socket_opt(jobs)
    jobs.add_argument(
        "--stats", action="store_true",
        help="print cache/queue/worker counters instead of the job list",
    )
    jobs.add_argument(
        "--json", action="store_true", help="print the job list as JSON"
    )
    jobs.set_defaults(fn=cmd_jobs)

    node = sub.add_parser(
        "node",
        help="cluster node daemon: hosts rank workers for a head "
        "running '--backend cluster'",
    )
    node.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="address of the cluster head to join",
    )
    node.add_argument(
        "--name", default=None, metavar="NAME",
        help="daemon name in head-side logs (default: hostname)",
    )
    node.set_defaults(fn=cmd_node)
