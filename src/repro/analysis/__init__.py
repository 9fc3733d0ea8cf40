"""reprolint — domain-aware static analysis + runtime sanitizer.

Two halves, one set of invariants:

* **Static** (:mod:`repro.analysis.engine`, ``python -m repro.analysis``):
  one rule per cost-model contract no generic linter knows about.  Three
  per-file AST rules — cost paths stay deterministic (REP002), the
  disabled obs facade stays pure (REP003), the parallel envelope
  vocabulary bijects with its handlers (REP005) — and three call-graph
  rules over every statement and DDL entry point: each reachable raw send
  is charged (REP007), no wall-clock or set-order value reaches a charge
  or the wire (REP008), and each reachable storage mutation is dominated
  by undo recording or a scope guard (REP009).

* **Dynamic** (:mod:`repro.analysis.sanitizer`,
  ``Cluster(sanitize=True)`` / ``REPRO_SANITIZE=1``): the same invariants
  asserted while an engine actually runs — send-charge parity against
  ``NetworkStats``, ledger-cell sanity, facade purity, the undo-scope gate,
  envelope-kind validation.

The static half never imports the engine (except REP005's vocabulary
registry); the dynamic half is imported lazily by ``Cluster`` so the
fast path pays nothing when disabled.
"""

from .engine import analyze_paths, discover_files
from .findings import AnalysisResult, Finding
from .reporters import exit_code, render_json, render_text
from .rules import RULES, rule_ids
from .suppressions import KNOWN_ANNOTATIONS, parse_suppressions

__all__ = [
    "AnalysisResult",
    "Finding",
    "KNOWN_ANNOTATIONS",
    "RULES",
    "analyze_paths",
    "discover_files",
    "exit_code",
    "parse_suppressions",
    "render_json",
    "render_text",
    "rule_ids",
]
