"""Shared helpers for the obs battery."""

import contextlib

import pytest


@contextlib.contextmanager
def store_sizes(segment_bytes=None, flush_bytes=None):
    """Segment writers built inside the block rotate at ``segment_bytes``
    and flush at ``flush_bytes``: the module constants a writer reads
    when it is built, patched for the block."""
    with pytest.MonkeyPatch.context() as mp:
        if segment_bytes is not None:
            mp.setattr(
                "repro.obs.store.segment.DEFAULT_SEGMENT_BYTES", segment_bytes
            )
        if flush_bytes is not None:
            mp.setattr(
                "repro.obs.store.segment.DEFAULT_FLUSH_BYTES", flush_bytes
            )
        yield
