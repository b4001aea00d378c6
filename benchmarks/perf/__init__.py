"""The repo's host-time benchmark (``BENCHMARK.json`` at the root names it).

Six workloads, each run in fresh subprocesses and checked against
committed physics digests; end-to-end metrics are measured with no
instrumentation, per-layer metrics by a separate traced pass whose
wrappers live entirely in this package (nothing under ``src/`` knows it
is being measured).  ``README.md`` beside this file has the workload,
metric and interaction tables and how to run and compare.

The package imports ``repro`` only inside the child processes
(``child.py`` and below), so ``cli`` and ``compare`` work from a bare
checkout without ``PYTHONPATH``.
"""

from pathlib import Path

#: Checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parents[2]
#: This package's directory; the only place the benchmark keeps files.
HERE = Path(__file__).resolve().parent
#: Scratch and result files (git-ignored).
OUT_DIR = HERE / "out"
