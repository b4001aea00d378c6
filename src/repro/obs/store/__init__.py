"""Streaming trace store (one append-only event file + index).

The scalable successor to buffering every event in
:class:`repro.obs.tracer.SpanTracer`: :class:`StoreTracer` streams
events to one event file with bounded memory, and :func:`load_store`
reconstructs the exact in-memory view for the existing exporters and
analyzers.  See ``docs/observability.md`` for the on-disk format.
"""

from repro.obs.store.codec import StoreCodecError
from repro.obs.store.reader import (
    StoreCorruptionError,
    StoreReader,
    TailReader,
    load_index,
    load_store,
)
from repro.obs.store.writer import (
    EVENTS_NAME,
    INDEX_NAME,
    STORE_FORMAT,
    StoreTracer,
)
from repro.obs.tracer import (
    KIND_MARK,
    KIND_OP,
    KIND_PHASE,
    KIND_RECV,
    KIND_SEND,
)

__all__ = [
    "EVENTS_NAME",
    "INDEX_NAME",
    "KIND_MARK",
    "KIND_OP",
    "KIND_PHASE",
    "KIND_RECV",
    "KIND_SEND",
    "STORE_FORMAT",
    "StoreCodecError",
    "StoreCorruptionError",
    "StoreReader",
    "StoreTracer",
    "TailReader",
    "load_index",
    "load_store",
]
