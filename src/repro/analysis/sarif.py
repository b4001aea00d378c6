"""SARIF 2.1.0 export for ``repro check`` findings.

Emits one run with the rule catalog's metadata in
``tool.driver.rules`` and one result per finding.  Baseline-waived
findings are included with an ``external`` suppression (GitHub code
scanning hides them but keeps the audit trail); ``# noqa`` waivers are
included with an ``inSource`` suppression.  Column numbers are
converted from 0-based AST offsets to SARIF's 1-based convention.
"""

from __future__ import annotations

import json

from repro.analysis.baseline import BaselineEntry
from repro.analysis.model import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
TOOL_NAME = "repro-check"
TOOL_URI = "docs/static-analysis.md"


def _result(
    finding: Finding,
    rule_index: dict[str, int],
    suppression: dict | None = None,
) -> dict:
    out: dict = {
        "ruleId": finding.code,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": max(1, finding.line),
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
    }
    if finding.code in rule_index:
        out["ruleIndex"] = rule_index[finding.code]
    if finding.function:
        out["partialFingerprints"] = {
            "reproCheckFunction/v1": f"{finding.code}:{finding.path}:"
            f"{finding.function}"
        }
    if suppression is not None:
        out["suppressions"] = [suppression]
    return out


def to_sarif(
    findings: list[Finding],
    waived: list[tuple[Finding, BaselineEntry]] | None = None,
    suppressed: list[Finding] | None = None,
    rules: list[dict] | None = None,
    tool_version: str = "0",
) -> dict:
    """Build the SARIF document (a plain JSON-serializable dict)."""
    rules = rules or []
    rule_index = {r["code"]: i for i, r in enumerate(rules)}
    results = [_result(f, rule_index) for f in findings]
    for f, entry in waived or []:
        results.append(
            _result(
                f,
                rule_index,
                suppression={
                    "kind": "external",
                    "justification": entry.justification,
                },
            )
        )
    for f in suppressed or []:
        results.append(
            _result(f, rule_index, suppression={"kind": "inSource"})
        )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": tool_version,
                        "informationUri": TOOL_URI,
                        "rules": [
                            {
                                "id": r["code"],
                                "name": r["name"],
                                "shortDescription": {"text": r["summary"]},
                                "fullDescription": {"text": r["rationale"]},
                                "defaultConfiguration": {"level": "error"},
                            }
                            for r in rules
                        ],
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }


def sarif_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)
