"""Experiment harness: run one paper experiment, print its rows.

Every figure/table of the paper has an experiment function in
:mod:`repro.bench.experiments` returning an :class:`ExperimentResult`; the
``benchmarks/`` tree wraps them in pytest-benchmark targets, and
``python -m repro.bench`` prints any of them standalone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..costs.report import ascii_table


@dataclass
class ExperimentResult:
    """The rows one experiment reports, paper-style."""

    experiment: str          # e.g. "Figure 7"
    title: str
    headers: List[str]
    rows: List[List[object]]
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"{self.experiment}: {self.title}", ""]
        lines.append(ascii_table(self.headers, self.rows))
        if self.notes:
            lines.append("")
            lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)

    def column(self, header: str) -> List[object]:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def as_dicts(self) -> List[Dict[str, object]]:
        return [dict(zip(self.headers, row)) for row in self.rows]


def agreement_ratio(model: Sequence[float], measured: Sequence[float]) -> float:
    """Worst-case measured/model ratio across a series (1.0 = exact).

    Used by validation notes and tests: the simulator executes the same
    primitive operations the closed forms count, so single-tuple TW ratios
    are exactly 1.0 and batch response ratios stay within distribution
    noise.
    """
    if len(model) != len(measured):
        raise ValueError("series lengths differ")
    worst = 1.0
    for predicted, observed in zip(model, measured):
        if predicted == 0 and observed == 0:
            continue
        if predicted == 0:
            return float("inf")
        ratio = observed / predicted
        worst = max(worst, ratio, 1.0 / ratio if ratio else float("inf"))
    return worst


def render_results(results: Sequence[ExperimentResult]) -> str:
    return "\n\n".join(result.render() for result in results)
