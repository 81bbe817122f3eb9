"""Finding/report types shared by the gradlint engine and its CLI.

A :class:`Finding` is one diagnostic anchored to a file location; a
:class:`Report` aggregates the findings of a lint run together with the
bookkeeping the CLI needs (files checked, suppression counts) and renders
either human-readable text or machine-readable JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: JSON report schema identifier.  v2 added the per-finding ``family``
#: field and the top-level per-family counts alongside the CL rule family.
JSON_SCHEMA = "repro.analysis/v2"


def rule_family(rule_id: str) -> str:
    """Alphabetic prefix of a rule id: ``GL001 -> GL``, ``CL004 -> CL``."""
    return rule_id.rstrip("0123456789")


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic emitted by a lint rule."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str

    @property
    def family(self) -> str:
        return rule_family(self.rule_id)

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} [{self.severity}] {self.message}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "family": self.family,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass
class Report:
    """Aggregated outcome of linting a set of files."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    def extend(self, findings: Sequence[Finding]) -> None:
        self.findings.extend(findings)

    def count(self, severity: str) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    @property
    def exit_code(self) -> int:
        """Non-zero whenever any unsuppressed finding remains.

        Both severities gate: the suite is meant to run as a blocking CI
        step, and a warning that is knowingly acceptable should carry an
        inline ``# gradlint: disable=<RULE>`` with a justification instead
        of being waved through globally.
        """
        return 1 if self.findings else 0

    def render_text(self) -> str:
        lines = [f.render() for f in sorted(self.findings)]
        errors, warnings = self.count("error"), self.count("warning")
        summary = (f"gradlint: {self.files_checked} file(s) checked, "
                   f"{errors} error(s), {warnings} warning(s), "
                   f"{self.suppressed} suppressed")
        if not self.findings:
            return summary + " — clean"
        return "\n".join(lines + ["", summary])

    def families(self) -> Dict[str, int]:
        """Finding counts per rule family (``{"GL": 3, "CL": 1}``)."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.family] = counts.get(finding.family, 0) + 1
        return dict(sorted(counts.items()))

    def render_json(self) -> str:
        payload = {
            "schema": JSON_SCHEMA,
            "files_checked": self.files_checked,
            "errors": self.count("error"),
            "warnings": self.count("warning"),
            "suppressed": self.suppressed,
            "families": self.families(),
            "findings": [f.to_dict() for f in sorted(self.findings)],
        }
        return json.dumps(payload, indent=2)
