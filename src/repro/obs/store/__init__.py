"""Streaming trace store (one append-only log of segments + index).

The scalable successor to buffering every event in
:class:`repro.obs.tracer.SpanTracer`: :class:`StoreTracer` streams
events to numbered segment files with bounded memory, and
:func:`load_store` reconstructs the exact in-memory view for the
existing exporters and analyzers.  See ``docs/observability.md`` for
the on-disk format.
"""

from repro.obs.store.codec import StoreCodecError
from repro.obs.store.reader import (
    StoreReader,
    TailReader,
    load_index,
    load_store,
)
from repro.obs.store.segment import (
    SegmentWriter,
    StoreCorruptionError,
    iter_segment_records,
)
from repro.obs.store.writer import (
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
    "INDEX_NAME",
    "KIND_MARK",
    "KIND_OP",
    "KIND_PHASE",
    "KIND_RECV",
    "KIND_SEND",
    "STORE_FORMAT",
    "SegmentWriter",
    "StoreCodecError",
    "StoreCorruptionError",
    "StoreReader",
    "StoreTracer",
    "TailReader",
    "iter_segment_records",
    "load_index",
    "load_store",
]
