"""Reporters: render an :class:`AnalysisResult` as text or JSON.

The text form is for humans at a terminal; the JSON form is the CI
artifact (stable key order, findings sorted by location) and round-trips
through :meth:`Finding.from_dict`.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .findings import AnalysisResult


def render_text(result: AnalysisResult) -> str:
    lines: List[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.column + 1}: "
            f"{finding.rule} {finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    lines.append(
        f"{len(result.findings)} finding(s) in {result.files_analyzed} "
        f"file(s) ({result.suppressed} suppressed)"
    )
    return "\n".join(lines) + "\n"


def render_json(result: AnalysisResult) -> str:
    payload: Dict[str, object] = {
        "findings": [finding.to_dict() for finding in result.findings],
        "summary": {
            "findings": len(result.findings),
            "files_analyzed": result.files_analyzed,
            "suppressed": result.suppressed,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def exit_code(result: AnalysisResult) -> int:
    """Non-zero when any finding remains."""
    return 1 if result.findings else 0
