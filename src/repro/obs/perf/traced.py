"""One traced run: store recorder (+ sanitizer) -> driver -> read-back.

``repro trace``, ``repro run --trace-store`` and ``repro bench`` all
execute a case the same way: record into a streaming
:class:`repro.obs.store.StoreTracer` (in a temporary directory when no
store directory is named), optionally shadow the run with the
sanitizer, run the case on its driver, seal the store and reconstruct
the in-memory view from it.  :func:`traced_run` is that pipeline,
written once.
"""

from __future__ import annotations

import tempfile
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["TracedRun", "traced_run"]


@dataclass
class TracedRun:
    """What a traced run leaves behind."""

    run: Any
    #: The in-memory event view the exporters and analyzers consume,
    #: replayed from the sealed store (byte-identical to an in-memory
    #: recording by construction).
    tracer: Any
    #: Per-step rows of the store index.
    steps: list[dict[str, Any]]
    #: The :class:`repro.analysis.Sanitizer` that shadowed the run, or
    #: None.
    sanitizer: Any
    #: The sealed :class:`StoreTracer` (``directory`` / ``records`` /
    #: ``nranks``); its directory is gone when it was a temporary one.
    store: Any


def traced_run(
    target: Any,
    store_dir: str | Path | None = None,
    sanitize: bool = False,
    backend: Any = "sim",
    meta: dict[str, Any] | None = None,
    from_step: int | None = None,
    **resilience: Any,
) -> TracedRun:
    """Run ``target`` (a case object) under span tracing.

    The events stream through a fresh trace store at ``store_dir``, or
    in a temporary directory removed afterwards; ``from_step`` replays
    only steps ``N..`` from it via the index's per-step byte offsets (a
    :class:`ValueError` out of range).  ``backend`` and ``resilience``
    go to :func:`repro.core.build_driver` unchanged; an engine passed as
    ``backend`` stays open (whoever built it closes it).
    """
    from repro.analysis import Sanitizer
    from repro.core import build_driver
    from repro.obs.store import StoreReader, StoreTracer

    with ExitStack() as stack:
        if store_dir is None:
            store_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-trace-")
            )
        store = StoreTracer(store_dir, meta=meta, fresh=True)
        sanitizer = Sanitizer(tracer=store) if sanitize else None
        try:
            run = build_driver(
                target, tracer=store, sanitizer=sanitizer, backend=backend,
                **resilience,
            ).run()
        finally:
            store.close()
        reader = StoreReader(store.directory)
        return TracedRun(
            run, reader.to_tracer(from_step=from_step), reader.steps,
            sanitizer, store,
        )
