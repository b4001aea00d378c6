"""Collective payload-signature checking (size/shape/dtype agreement).

The sanitizer compares per-rank collective *sequences*; these tests pin
the extension of each sequence entry with an O(1) payload signature for
element-wise collectives (reduce/allreduce), while
size-varying collectives (gather, bcast) stay exempt.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import Sanitizer, payload_signature
from repro.machine import sp2
from repro.machine.scheduler import Simulator


def _run(program, nranks=3, sanitizer=None):
    sim = Simulator(sp2(nodes=nranks), sanitizer=sanitizer)
    for _ in range(nranks):
        sim.spawn(program)
    return sim.run()


def _findings(san, kind):
    return [f for f in san.findings if f.kind == kind]


# ----------------------------------------------------------------------
# payload_signature unit behaviour


def test_signature_ndarray_shape_dtype():
    assert payload_signature(np.zeros((3, 4))) == (
        "ndarray", (3, 4), "float64",
    )
    assert payload_signature(np.zeros(3, dtype=np.int32)) == (
        "ndarray", (3,), "int32",
    )
    # numpy scalars carry shape ()/dtype too — distinct from python floats.
    assert payload_signature(np.float64(1.0))[0] == "ndarray"


def test_signature_python_values():
    assert payload_signature(None) == ("none",)
    assert payload_signature(3) == ("py", "int")
    assert payload_signature(3.5) == ("py", "float")
    assert payload_signature([1, 2, 3]) == ("seq", 3)
    assert payload_signature((1, 2)) == ("seq", 2)
    assert payload_signature(b"abc") == ("bytes", 3)
    assert payload_signature({"a": 1}) == ("py", "dict")


def test_signature_is_size_independent_structure():
    # Same shape, different values -> same signature (O(1), value-blind).
    a = payload_signature(np.arange(6.0).reshape(2, 3))
    b = payload_signature(np.zeros((2, 3)))
    assert a == b


# ----------------------------------------------------------------------
# clean programs stay clean


def test_matching_allreduce_signatures_clean():
    def program(comm):
        total = yield from comm.allreduce(np.full(4, float(comm.rank)))
        return float(total.sum())

    san = Sanitizer()
    _run(program, sanitizer=san)
    assert _findings(san, "collective-mismatch") == []
    assert san.report().ok


def test_gatherv_style_variation_not_flagged():
    """Per-rank gather sizes legitimately vary; no payload check."""

    def program(comm):
        mine = np.zeros(comm.rank + 1)  # different size per rank!
        rows = yield from comm.gather(mine, root=0)
        yield from comm.barrier()
        return None if rows is None else len(rows)

    san = Sanitizer()
    _run(program, sanitizer=san)
    assert _findings(san, "collective-mismatch") == []


def test_root_only_bcast_payload_not_flagged():
    def program(comm):
        word = yield from comm.bcast("x" if comm.rank == 0 else None, root=0)
        return word

    san = Sanitizer()
    out = _run(program, sanitizer=san)
    assert out.returns == ["x"] * 3
    assert _findings(san, "collective-mismatch") == []


# ----------------------------------------------------------------------
# divergent payloads are flagged


def test_allreduce_shape_mismatch_flagged():
    def program(comm):
        n = 4 if comm.rank != 2 else 5  # rank 2 contributes a longer array
        yield from comm.allreduce(
            np.zeros(n), op=lambda a, b: a[: len(b)] + b[: len(a)]
        )
        return None

    san = Sanitizer()
    _run(program, sanitizer=san)
    found = _findings(san, "collective-mismatch")
    assert found, "shape-divergent allreduce must be flagged"
    assert any("payload" in f.message for f in found)
    assert not san.report().ok


def test_reduce_dtype_mismatch_flagged():
    def program(comm):
        dtype = np.float64 if comm.rank != 1 else np.float32
        yield from comm.reduce(np.zeros(3, dtype=dtype), root=0)
        return None

    san = Sanitizer()
    _run(program, sanitizer=san)
    assert _findings(san, "collective-mismatch")


def test_mixed_python_type_fold_flagged():
    def program(comm):
        value = 1.0 if comm.rank != 1 else [1.0]  # list vs float fold
        yield from comm.reduce(value, op=lambda a, b: a, root=0)
        return None

    san = Sanitizer()
    _run(program, sanitizer=san)
    assert _findings(san, "collective-mismatch")


def test_signature_check_does_not_perturb_virtual_time():
    def program(comm):
        yield from comm.compute(flops=1e6)
        yield from comm.allreduce(np.zeros(8))
        yield from comm.barrier()
        return comm.rank

    plain = _run(program)
    sanitized = _run(program, sanitizer=Sanitizer())
    assert sanitized.elapsed == plain.elapsed
    assert sanitized.returns == plain.returns
