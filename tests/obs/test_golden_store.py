"""Golden pins for what a :class:`StoreTracer` writes.

Two pins per run, both with the record and rank counts.  ``files`` is
the sha256 of every file the store leaves behind (each segment and the
complete ``index.json``): any change to record order, flush points,
step detection, the per-step rollup *or the on-disk layout* shows up as
a changed digest.  ``decoded`` takes the layout out: the sha256 of the
read-back ``(kind, fields)`` stream, of every ``from_step=k`` replay,
and the index without its format tag, segment table and step start
positions — so a change of record encoding or file layout must leave
it alone, and so must a change in which objects the producer shares
(marshal flags an object referenced elsewhere, which moves ``files``
but not ``decoded``).

The runs cover the default buffering, small segments and flush buffers
(rotation at many points), a ``flush_every`` cadence, a sanitizer
recording into the same store, and the off-body driver.  Every run is
deterministic on the simulator.  Regenerate on purpose with
``python tests/obs/test_golden_store.py``.
"""

import dataclasses
import functools
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.analysis import Sanitizer
from repro.cases import build_case
from repro.core import build_driver
from repro.machine import sp2
from repro.obs.store import INDEX_NAME, StoreReader, StoreTracer
from repro.offbody import build_offbody_case, generate_scenario

GOLDEN_PATH = Path(__file__).parent / "golden_store.json"


def airfoil():
    return build_case("airfoil", machine=sp2(nodes=6), scale=0.05, nsteps=3)


def store():
    cfg = build_case(
        "store", machine=sp2(nodes=18), scale=0.05, nsteps=2, f0=2.0
    )
    return dataclasses.replace(cfg, lb_check_interval=1)


def debris():
    return build_offbody_case(
        generate_scenario("debris", seed=5, nbodies=3), nsteps=4
    )


#: name -> (case builder, store options, sanitized).  ``segment_bytes``
#: and ``flush_bytes`` patch the segment module's constants of the same
#: name (``DEFAULT_*``); the rest are StoreTracer keyword arguments.
CASES = {
    "airfoil-default": (airfoil, {}, False),
    "airfoil-small-segments": (
        airfoil, {"segment_bytes": 4096, "flush_bytes": 256}, False
    ),
    "store-sanitized": (store, {}, True),
    "store-flush-every": (
        store,
        {"flush_every": 17, "flush_bytes": 512, "segment_bytes": 8192},
        False,
    ),
    "debris-5": (debris, {"segment_bytes": 4096}, False),
}


def digest(events: list) -> str:
    return hashlib.sha256(json.dumps(events).encode()).hexdigest()


def decoded(directory: Path) -> dict:
    """The store's content with the encoding and every position taken
    out: the read-back ``(kind, fields)`` stream, every partial replay,
    and the index without its format tag, segment table and step
    starts."""
    reader = StoreReader(directory)
    index = json.loads((directory / INDEX_NAME).read_text())
    for key in ("format", "segments", "shards"):
        index.pop(key, None)
    for step in index["steps"]:
        step.pop("start", None)
        step.pop("starts")
    return {
        "stream": digest(reader.to_tracer().events),
        "from_step": [
            digest(reader.to_tracer(from_step=k).events)
            for k in range(len(index["steps"]))
        ],
        "index": index,
    }


@functools.cache
def record(name: str) -> dict:
    """File digests, counts and decoded content of one case's store."""
    build, options, sanitized = CASES[name]
    kwargs = dict(options)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for size in ("segment_bytes", "flush_bytes"):
            if size in kwargs:
                mp.setattr(
                    f"repro.obs.store.segment.DEFAULT_{size.upper()}",
                    kwargs.pop(size),
                )
        tracer = StoreTracer(tmp, **kwargs)
        sanitizer = Sanitizer(tracer=tracer) if sanitized else None
        build_driver(build(), tracer=tracer, sanitizer=sanitizer).run()
        tracer.close()
        files = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(tmp).iterdir())
        }
        content = decoded(Path(tmp))
    return {
        "files": files,
        "records": tracer.records,
        "nranks": tracer.nranks,
        "decoded": content,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    want = json.loads(GOLDEN_PATH.read_text())[name]
    got = record(name)
    assert sorted(got["files"]) == sorted(want["files"]), f"{name}: file set"
    for fname in sorted(want["files"]):
        assert got["files"][fname] == want["files"][fname], (
            f"{name}: {fname} drifted"
        )
    assert (got["records"], got["nranks"]) == (want["records"], want["nranks"])


@pytest.mark.parametrize("name", sorted(CASES))
def test_decoded_content_matches_golden(name):
    want = json.loads(GOLDEN_PATH.read_text())[name]
    got = record(name)
    assert got["decoded"]["stream"] == want["decoded"]["stream"], name
    assert got["decoded"]["from_step"] == want["decoded"]["from_step"], name
    assert (got["records"], got["nranks"]) == (want["records"], want["nranks"])
    assert got["decoded"]["index"] == want["decoded"]["index"], name


def test_small_segments_rotate():
    golden = json.loads(GOLDEN_PATH.read_text())
    for name in ("airfoil-small-segments", "store-flush-every", "debris-5"):
        segs = [f for f in golden[name]["files"] if f.endswith(".seg")]
        assert any(f.endswith("-00001.seg") for f in segs), name


def regenerate() -> None:  # pragma: no cover - manual tool
    doc = {name: record(name) for name in sorted(CASES)}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
