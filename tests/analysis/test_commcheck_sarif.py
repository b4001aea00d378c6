"""SARIF 2.1.0 round-trip + schema validation for ``repro check``.

The vendored subset schema (``fixtures/sarif-2.1.0-subset.schema.json``)
mirrors the published sarif-2.1.0 schema's constraints for every
construct the emitter produces; validation runs with ``jsonschema``.
"""

import json
from pathlib import Path

import jsonschema
import pytest

from repro.analysis import (
    BaselineEntry,
    Finding,
    rule_catalog,
    run_check,
    sarif_json,
    to_sarif,
)

FIXTURES = Path(__file__).parent / "fixtures"
SCHEMA = json.loads(
    (FIXTURES / "sarif-2.1.0-subset.schema.json").read_text()
)


def commcheck_rules():
    return rule_catalog()


def validate(doc: dict) -> None:
    jsonschema.validate(instance=doc, schema=SCHEMA)


class TestSarifEmitter:
    def finding(self, **kw):
        base = dict(
            path="src/x.py", line=3, col=4, code="RPR015",
            message="blocking 'sleep()' while holding lock [_lock]",
            function="x.C.f",
        )
        base.update(kw)
        return Finding(**base)

    def test_empty_report_validates(self):
        doc = to_sarif([], rules=commcheck_rules())
        validate(doc)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"] == []
        ids = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
        assert ids == [f"RPR{n:03d}" for n in range(1, 16)]

    def test_findings_round_trip(self):
        doc = to_sarif([self.finding()], rules=commcheck_rules())
        validate(doc)
        res = doc["runs"][0]["results"][0]
        assert res["ruleId"] == "RPR015"
        assert res["level"] == "error"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/x.py"
        assert loc["region"]["startLine"] == 3
        assert loc["region"]["startColumn"] == 5  # 0-based col -> 1-based

    def test_rule_index_points_at_rule(self):
        doc = to_sarif([self.finding()], rules=commcheck_rules())
        res = doc["runs"][0]["results"][0]
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert rules[res["ruleIndex"]]["id"] == "RPR015"

    def test_waived_and_suppressed_carry_suppressions(self):
        entry = BaselineEntry(
            code="RPR015", path="src/x.py",
            justification="by design: transport lock",
        )
        doc = to_sarif(
            [],
            waived=[(self.finding(), entry)],
            suppressed=[self.finding(line=9)],
            rules=commcheck_rules(),
        )
        validate(doc)
        kinds = sorted(
            r["suppressions"][0]["kind"]
            for r in doc["runs"][0]["results"]
        )
        assert kinds == ["external", "inSource"]
        ext = [
            r
            for r in doc["runs"][0]["results"]
            if r["suppressions"][0]["kind"] == "external"
        ][0]
        assert "by design" in ext["suppressions"][0]["justification"]

    def test_json_serializable_and_stable(self):
        text = sarif_json(to_sarif([self.finding()], rules=commcheck_rules()))
        doc = json.loads(text)
        validate(doc)
        assert text == sarif_json(doc)  # sorted keys -> idempotent dump

    def test_schema_rejects_bad_version(self):
        doc = to_sarif([], rules=commcheck_rules())
        doc["version"] = "1.0.0"
        with pytest.raises(jsonschema.ValidationError):
            validate(doc)

    def test_schema_rejects_zero_line(self):
        doc = to_sarif([], rules=commcheck_rules())
        doc["runs"][0]["results"] = [
            {
                "ruleId": "RPR015",
                "message": {"text": "x"},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": "x.py"},
                            "region": {"startLine": 0},
                        }
                    }
                ],
            }
        ]
        with pytest.raises(jsonschema.ValidationError):
            validate(doc)


class TestSarifOnFixtures:
    def test_real_findings_validate(self):
        base = Path(__file__).parent / "fixtures" / "commcheck"
        report = run_check(
            [base / "rpr015_blocking" / "bad.py"],
            select=["RPR015"],
            root=base,
        )
        assert report.findings
        doc = json.loads(report.to_sarif())
        validate(doc)
        assert len(doc["runs"][0]["results"]) == len(report.findings)
        assert len(doc["runs"][0]["tool"]["driver"]["rules"]) == 15
