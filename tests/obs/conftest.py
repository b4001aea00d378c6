"""Shared helpers for the obs battery."""

import contextlib

import pytest


@contextlib.contextmanager
def flush_bytes(nbytes):
    """StoreTracers built inside the block write their buffer out at
    ``nbytes``: the module constant a StoreTracer reads when it is
    built, patched for the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.obs.store.writer.DEFAULT_FLUSH_BYTES", nbytes)
        yield
