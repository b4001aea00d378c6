"""Deterministic checkpointing for OVERFLOW-D1 runs.

A :class:`Checkpoint` is a set of named *sections*, each a pickled
snapshot of one piece of run state.  The epoch runner writes exactly
two: ``config`` (the case) and ``driver`` (progress, epochs, the
workload's carry with its donor-restart memory); grid poses are
re-derived from the case and the time on restore.  The container is
deliberately dumb: it stores bytes, checksums and JSON metadata — the
epoch runner (:mod:`repro.core.runner`) decides what goes in.

Determinism contract
--------------------
Checkpoint *bytes* are a pure function of the simulated state:

* a fixed pickle protocol (no protocol drift between interpreter runs);
* no wall-clock timestamps, hostnames or other environment material in
  the file;
* sections serialised in insertion order (the driver builds the state
  dict deterministically).

So two runs that reach the same virtual state write byte-identical
checkpoints — which is what lets the test battery assert restore
round-trips and repeated faulted runs bit-for-bit.

On-disk format (version 5; the layout is version 1's)::

    offset  size  field
    0       8     magic  b"RPROCKPT"
    8       8     header length H (big-endian unsigned)
    16      H     header JSON (utf-8): {"version", "meta", "sections"}
    16+H    ...   section bodies, concatenated in header order

The header lists every section's name, byte length and SHA-256; ``load``
verifies all checksums and the version before unpickling anything, so a
truncated or corrupted file fails loudly instead of resuming from
garbage.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from pathlib import Path
from typing import Any

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
]

CHECKPOINT_MAGIC = b"RPROCKPT"
#: v2: the pickled driver state moved to :mod:`repro.core.runner`; v1
#: files would unpickle against a class that is gone, so they are
#: refused by version instead.  v3: ``RestartCache`` in the carry is
#: sorted arrays, not the dict a v2 file would unpickle into routing.
#: v4: an in-flight epoch carries ``RankMetrics`` rows of ``PhaseCell``s,
#: not the ``time``/``flops`` dicts of v3.  v5: the sections are exactly
#: ``config`` and ``driver``; a v4 file's ``world`` section is gone.
CHECKPOINT_VERSION = 5

#: Fixed so the same state pickles to the same bytes on every
#: supported interpreter (protocol 4 is available from Python 3.4).
PICKLE_PROTOCOL = 4

#: Checkpoints a :class:`CheckpointStore` keeps; older ones are pruned.
KEEP = 3


class CheckpointError(RuntimeError):
    """Malformed, corrupted or version-incompatible checkpoint."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checkpoint:
    """An in-memory checkpoint: JSON-able ``meta`` + pickled sections.

    ``pack``/``unpack`` convert between live objects and section bytes;
    ``save``/``load`` move the container to and from disk.  Because
    ``unpack`` always unpickles *fresh* objects from the stored bytes,
    restoring from an in-memory checkpoint has the same deep-copy
    semantics as restoring from disk — no aliasing with live,
    possibly-mutated driver state.
    """

    def __init__(self, meta: dict, sections: dict[str, bytes]):
        self.meta = dict(meta)
        self.sections = dict(sections)

    # -- construction ---------------------------------------------------

    @classmethod
    def pack(cls, meta: dict, state: dict[str, Any]) -> "Checkpoint":
        """Pickle every value of ``state`` into a named section."""
        sections = {
            name: pickle.dumps(obj, protocol=PICKLE_PROTOCOL)
            for name, obj in state.items()
        }
        return cls(meta, sections)

    def unpack(self) -> dict[str, Any]:
        """Unpickle every section into a fresh object."""
        return {
            name: pickle.loads(data) for name, data in self.sections.items()
        }

    # -- introspection --------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total payload size (used to model restore cost)."""
        return sum(len(b) for b in self.sections.values())

    @property
    def step(self) -> int:
        return int(self.meta.get("step", -1))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Checkpoint(step={self.meta.get('step')}, "
            f"case={self.meta.get('case')!r}, "
            f"sections={list(self.sections)}, nbytes={self.nbytes})"
        )

    # -- serialisation --------------------------------------------------

    def to_bytes(self) -> bytes:
        names = list(self.sections)
        header = {
            "version": CHECKPOINT_VERSION,
            "meta": self.meta,
            "sections": [
                {
                    "name": name,
                    "nbytes": len(self.sections[name]),
                    "sha256": _sha256(self.sections[name]),
                }
                for name in names
            ],
        }
        # Deterministic JSON: sorted keys, no whitespace drift.
        hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        parts = [CHECKPOINT_MAGIC, len(hdr).to_bytes(8, "big"), hdr]
        parts.extend(self.sections[name] for name in names)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Checkpoint":
        if blob[:8] != CHECKPOINT_MAGIC:
            raise CheckpointError(
                f"bad magic {blob[:8]!r}; not a repro checkpoint"
            )
        hlen = int.from_bytes(blob[8:16], "big")
        try:
            header = json.loads(blob[16 : 16 + hlen].decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
        version = header.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version} not supported "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        sections: dict[str, bytes] = {}
        off = 16 + hlen
        for sec in header["sections"]:
            data = blob[off : off + sec["nbytes"]]
            if len(data) != sec["nbytes"]:
                raise CheckpointError(
                    f"truncated checkpoint: section {sec['name']!r} "
                    f"expected {sec['nbytes']} bytes, got {len(data)}"
                )
            digest = _sha256(data)
            if digest != sec["sha256"]:
                raise CheckpointError(
                    f"checksum mismatch in section {sec['name']!r}: "
                    f"expected {sec['sha256'][:12]}…, got {digest[:12]}…"
                )
            sections[sec["name"]] = data
            off += sec["nbytes"]
        return cls(header["meta"], sections)

    def save(self, path: str | Path) -> Path:
        """Atomic write: temp file + rename, so a crash mid-write can
        never leave a half-checkpoint with a valid name."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(self.to_bytes())
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Checkpoint":
        """Load a checkpoint file, or the newest checkpoint of a
        checkpoint directory."""
        path = Path(path)
        if path.is_dir():
            latest = CheckpointStore(path).latest()
            if latest is None:
                raise CheckpointError(f"no checkpoints in {path}")
            return latest
        if not path.is_file():
            raise CheckpointError(f"no checkpoint at {path}")
        return cls.from_bytes(path.read_bytes())


class CheckpointStore:
    """A directory of checkpoints keeping the newest :data:`KEEP`.

    File names encode the absolute driver step (``ckpt-step000040.rpk``,
    more digits from step 1 000 000 on) and files are ordered by that
    parsed step, so ``latest()`` is the highest step — no mtime
    dependence, which keeps store behaviour deterministic across
    filesystems.
    """

    SUFFIX = ".rpk"
    _NAME = re.compile(r"^ckpt-step(\d+)" + re.escape(SUFFIX) + "$")

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def path_for(self, step: int) -> Path:
        return self.directory / f"ckpt-step{step:06d}{self.SUFFIX}"

    def write(self, ckpt: Checkpoint) -> Path:
        step = ckpt.step
        if step < 0:
            raise CheckpointError("checkpoint meta lacks a 'step' entry")
        path = ckpt.save(self.path_for(step))
        self.prune()
        return path

    def paths(self) -> list[Path]:
        """All checkpoint files, oldest (lowest step) first."""
        if not self.directory.is_dir():
            return []
        steps: dict[Path, int] = {}
        for p in self.directory.iterdir():
            m = self._NAME.match(p.name)
            if m:
                steps[p] = int(m.group(1))
        return sorted(steps, key=steps.__getitem__)

    def latest(self) -> Checkpoint | None:
        paths = self.paths()
        if not paths:
            return None
        return Checkpoint.load(paths[-1])

    def prune(self) -> list[Path]:
        """Delete all but the newest :data:`KEEP` checkpoints."""
        doomed = self.paths()[:-KEEP]
        for p in doomed:
            p.unlink()
        return doomed
