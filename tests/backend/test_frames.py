"""One rank-to-rank frame, each way it can travel.

A frame is one pickle of ``(src, tag, seq, nbytes, payload)``; shared
memory hides inside pickling (a staged array, a whole staged frame, or
a node daemon's restage of opaque bytes).  Two in-process engines are
wired by real pipes, so every path runs its actual encode, transmit and
deposit code without forking.
"""

from __future__ import annotations

import glob
import itertools
import os
import pickle
import threading
from multiprocessing import Pipe

import numpy as np
import pytest

from repro.backend.mp import SHM_THRESHOLD, _Engine, restage_frame
from repro.cluster.node import _PIPE_SAFE
from repro.machine.metrics import RankMetrics

pytestmark = pytest.mark.mp

TAG = 7
_counter = itertools.count()


def _engines(runid, offhost):
    """Ranks 0 and 1 with an inbox pipe each; with ``offhost`` rank 0
    sees rank 1 as off-host and sends up its uplink instead."""
    readers, writers = zip(*(Pipe(duplex=False) for _ in range(2)))
    locks = [threading.Lock(), threading.Lock()]
    uplink_r, uplink_w = Pipe(duplex=False)
    engines = [
        _Engine(
            r, 2, readers[r],
            [writers[0], None] if offhost and r == 0 else list(writers),
            locks, None, runid=runid, metrics=RankMetrics(r), trace=False,
            uplink=uplink_w,
        )
        for r in range(2)
    ]
    return engines, writers, uplink_r


def _daemon_deposit(frame, writer, runid):
    """What a node daemon does with an off-host frame for a local rank."""
    assert len(frame) >= _PIPE_SAFE
    frame = restage_frame(frame, runid, "fw0_1")
    assert len(frame) < _PIPE_SAFE
    writer.send_bytes(frame)


def _same(got, sent):
    if isinstance(sent, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.shape == sent.shape and got.dtype == sent.dtype
        assert got.flags.writeable
        assert np.array_equal(got, sent)
    else:
        assert got == sent


@pytest.mark.parametrize(
    "dst, offhost, payload, staged",
    [
        pytest.param(1, False, np.arange(12.0).reshape(3, 4), 0, id="inline"),
        pytest.param(
            1, False,
            np.arange(SHM_THRESHOLD // 4, dtype=np.int32).reshape(64, -1),
            1, id="array-over-threshold",
        ),
        pytest.param(
            1, False, {"data": list(range(20000))}, 1,
            id="object-over-threshold",
        ),
        pytest.param(
            0, False, np.ones((SHM_THRESHOLD // 8, 1)), 0, id="self-send",
        ),
        pytest.param(
            1, True, np.linspace(0.0, 1.0, 6000), 0, id="offhost-restaged",
        ),
    ],
)
def test_frame_round_trip(dst, offhost, payload, staged):
    runid = f"repro_test_{os.getpid()}_{next(_counter)}"
    (sender, receiver), writers, uplink = _engines(runid, offhost)
    sender._dispatch(("inject", dst, TAG, payload, 123))
    assert len(glob.glob(f"/dev/shm/{runid}_*")) == staged
    if offhost:
        to, frame = uplink.recv()
        assert to == dst
        _daemon_deposit(frame, writers[dst], runid)
    target = sender if dst == 0 else receiver
    target._pump(0.0)
    msg = target.mailbox.pop_matching(0, TAG, np.inf, allow_future=True)
    assert (msg.src, msg.tag, msg.seq, msg.nbytes) == (0, TAG, 1, 123)
    _same(msg.payload, payload)
    assert glob.glob(f"/dev/shm/{runid}_*") == []

    # A daemon restages opaque bytes without opening them: the short
    # reference takes the segment, then fails to unpickle non-pickle.
    ref = restage_frame(b"\0" * _PIPE_SAFE, runid, "opaque")
    assert len(ref) < _PIPE_SAFE
    with pytest.raises(pickle.UnpicklingError):
        pickle.loads(ref)
    assert glob.glob(f"/dev/shm/{runid}_*") == []
