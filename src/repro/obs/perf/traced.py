"""One traced run: recorder (+ sanitizer) -> driver -> store read-back.

``repro trace``, ``repro run --trace-store`` and ``repro bench`` all
execute a case the same way: build the recorder (a streaming
:class:`repro.obs.store.StoreTracer` when a store directory is named,
an in-memory :class:`repro.obs.SpanTracer` otherwise), optionally
shadow the run with the sanitizer, run the case on its driver, seal the
store and reconstruct the in-memory view from it.  :func:`traced_run`
is that pipeline, written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["TracedRun", "traced_run"]


@dataclass
class TracedRun:
    """What a traced run leaves behind."""

    run: Any
    #: The in-memory event view the exporters and analyzers consume:
    #: replayed from the sealed store (byte-identical to an in-memory
    #: recording by construction), or the recorder itself without one.
    tracer: Any
    #: Per-step rows of the store index (empty without a store).
    steps: list[dict[str, Any]]
    #: The :class:`repro.analysis.Sanitizer` that shadowed the run, or
    #: None.
    sanitizer: Any
    #: The sealed :class:`StoreTracer` (``directory`` / ``records`` /
    #: ``nranks``), or None for an in-memory recording.
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

    ``store_dir`` streams the events through a fresh segment store
    there; ``from_step`` then replays only steps ``N..`` from it via
    the index's per-step byte offsets (a :class:`ValueError` without a
    store or out of range).  ``backend`` and ``resilience`` go to
    :func:`repro.core.build_driver` unchanged; an engine passed as
    ``backend`` stays open (whoever built it closes it).
    """
    from repro.analysis import Sanitizer
    from repro.core import build_driver
    from repro.obs import SpanTracer
    from repro.obs.store import StoreReader, StoreTracer

    if from_step is not None and store_dir is None:
        raise ValueError(
            "from_step needs a store_dir (--trace-store): per-step byte "
            "offsets live in the segment store's index"
        )
    store = None
    if store_dir is not None:
        store = StoreTracer(store_dir, meta=meta, fresh=True)
    recorder = store if store is not None else SpanTracer()
    sanitizer = Sanitizer(tracer=recorder) if sanitize else None
    try:
        run = build_driver(
            target, tracer=recorder, sanitizer=sanitizer, backend=backend,
            **resilience,
        ).run()
    finally:
        if store is not None:
            store.close()
    if store is None:
        return TracedRun(run, recorder, [], sanitizer, None)
    reader = StoreReader(store.directory)
    return TracedRun(
        run, reader.to_tracer(from_step=from_step), reader.steps,
        sanitizer, store,
    )
