"""Findings: what a rule reports, and what one analysis run produced.

A :class:`Finding` pins one invariant violation to a source location; the
engine fills in ``snippet`` (the offending line, whitespace-normalized)
for the reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str            # e.g. "REP007"
    path: str            # module-relative path, e.g. "cluster/network.py"
    line: int            # 1-based line number
    column: int          # 0-based column offset
    message: str
    snippet: str = ""    # the stripped source line, for reports

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "snippet": self.snippet,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "Finding":
        return Finding(
            rule=str(payload["rule"]),
            path=str(payload["path"]),
            line=int(payload["line"]),  # type: ignore[arg-type]
            column=int(payload.get("column", 0)),  # type: ignore[arg-type]
            message=str(payload.get("message", "")),
            snippet=str(payload.get("snippet", "")),
        )


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0          # findings silenced by noqa/annotations
    files_analyzed: int = 0
