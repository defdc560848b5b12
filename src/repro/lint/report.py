"""Reporters: render a :class:`~repro.lint.engine.LintResult` for humans/CI."""

from __future__ import annotations

import json

from .engine import LintResult
from .registry import RULES


def render_text(result: LintResult) -> str:
    """One ``path:line:col: CODE message`` line per finding plus a summary."""
    lines = [finding.render() for finding in result.findings]
    noun = "finding" if len(result.findings) == 1 else "findings"
    lines.append(
        f"checked {result.files_checked} file(s): "
        f"{len(result.findings)} {noun}"
        + (f" ({result.suppressed} suppressed)" if result.suppressed else "")
    )
    return "\n".join(lines)


#: SARIF 2.1.0 — the interchange schema GitHub code scanning and most
#: editors ingest.  Only the required subset is emitted, deterministically.
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_sarif(result: LintResult) -> str:
    """Static Analysis Results Interchange Format (2.1.0) report."""
    rules = [
        {
            "id": code,
            "name": rule_cls.name,
            "shortDescription": {"text": rule_cls.summary},
        }
        for code, rule_cls in sorted(RULES.items())
    ]
    rule_ids = [rule["id"] for rule in rules]
    results = []
    for finding in result.findings:
        entry = {
            "ruleId": finding.code,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                        },
                    }
                }
            ],
        }
        if finding.code in rule_ids:
            entry["ruleIndex"] = rule_ids.index(finding.code)
        results.append(entry)
    payload = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.lint",
                        "informationUri":
                            "docs/linting.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rules() -> str:
    """The rule catalog (``--list-rules``)."""
    lines = []
    for code, rule_cls in sorted(RULES.items()):
        lines.append(f"{code} {rule_cls.name}: {rule_cls.summary}")
    return "\n".join(lines)

