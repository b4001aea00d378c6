"""Simulation-as-a-service: the ``repro serve`` daemon and its client.

The package splits along the wire:

* :mod:`repro.serve.jobs` — job identity (``JobSpec`` → ``config_sha``)
  and the single execution path that guarantees byte-identical
  deterministic payloads;
* :mod:`repro.serve.protocol` — line-delimited JSON framing;
* :mod:`repro.serve.cache` — content-addressed LRU result store;
* :mod:`repro.serve.pool` — one warm worker process with crash-retry;
* :mod:`repro.serve.server` — the daemon (accept/dispatch/drain);
* :mod:`repro.serve.client` — the synchronous ``ServeClient``.

See ``docs/serving.md`` for the protocol catalogue and semantics.
"""

from repro.serve.cache import ResultCache
from repro.serve.client import (
    JobFailedError,
    ServeClient,
    ServeConnectError,
    ServeError,
    ServeProtocolError,
)
from repro.serve.jobs import (
    SERVE_RESULT_SCHEMA,
    JobSpec,
    JobSpecError,
    run_job,
    run_job_bytes,
)
from repro.serve.pool import (
    JobExecutionError,
    JobTimeout,
    PoolError,
    WarmWorker,
    WorkerCrash,
)
from repro.serve.protocol import (
    MAX_FRAME,
    MAX_SOCKET_PATH,
    PROTOCOL_VERSION,
    SocketPathTooLong,
    check_socket_path,
)
from repro.serve.server import ReproServer

__all__ = [
    "SERVE_RESULT_SCHEMA",
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "MAX_SOCKET_PATH",
    "SocketPathTooLong",
    "check_socket_path",
    "JobSpec",
    "JobSpecError",
    "run_job",
    "run_job_bytes",
    "ResultCache",
    "WarmWorker",
    "PoolError",
    "WorkerCrash",
    "JobTimeout",
    "JobExecutionError",
    "ReproServer",
    "ServeClient",
    "ServeError",
    "ServeConnectError",
    "ServeProtocolError",
    "JobFailedError",
]
