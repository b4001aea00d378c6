"""Static analysis + runtime sanitization for the deterministic stack.

Two halves (see ``docs/static-analysis.md``):

* the static checker (``repro check``, :func:`run_check`): one engine
  (:mod:`repro.analysis.engine`) over one parse of the inputs
  (:mod:`repro.analysis.callgraph`) and one comm-site extraction
  (:mod:`repro.analysis.summary`), one registry of rules with stable
  ``RPRnnn`` codes — per-file invariants no off-the-shelf linter knows
  (named-tag discipline, no wall-clock/unseeded-RNG in deterministic
  packages, no unordered iteration feeding message injection, no
  swallowed failure exceptions; :mod:`repro.analysis.rules`) and
  whole-program protocol and lock-discipline checks
  (:mod:`repro.analysis.protocol`, :mod:`repro.analysis.locks`) — with
  ``# noqa: RPRxxx`` then baseline waivers and text / JSON / SARIF
  reports.
* :mod:`repro.analysis.sanitizer` — a runtime shadow layer for the
  simulated machine (``repro run --sanitize``): message-race witnesses
  on wildcard receives, tag-collision and reserved-tag policing,
  collective-sequence cross-checks, finalize-leak detection — all
  without perturbing virtual time by a single tick.
"""

from repro.analysis.baseline import (
    BaselineEntry,
    BaselineError,
    apply_baseline,
    load_baseline,
)
from repro.analysis.callgraph import Program, load_program
from repro.analysis.engine import (
    CheckReport,
    Rule,
    iter_rules,
    register,
    rule_catalog,
    run_check,
)
from repro.analysis.fix import FixResult, fix_paths, fix_rpr007_source
from repro.analysis.model import CommSite, CommSummary, Finding, TagInfo
from repro.analysis.sanitizer import (
    FINDING_KINDS,
    Sanitizer,
    SanitizerFinding,
    SanitizerReport,
    payload_signature,
)
from repro.analysis.sarif import sarif_json, to_sarif
from repro.analysis.summary import extract_summary

__all__ = [
    "BaselineEntry",
    "BaselineError",
    "CheckReport",
    "CommSite",
    "CommSummary",
    "Finding",
    "FixResult",
    "Program",
    "Rule",
    "TagInfo",
    "apply_baseline",
    "extract_summary",
    "fix_paths",
    "fix_rpr007_source",
    "iter_rules",
    "load_baseline",
    "load_program",
    "register",
    "rule_catalog",
    "run_check",
    "sarif_json",
    "to_sarif",
    "FINDING_KINDS",
    "Sanitizer",
    "SanitizerFinding",
    "SanitizerReport",
    "payload_signature",
]
