"""Suppression audit: inventory every ``# repro:`` escape hatch and fail
on the stale ones.

Suppressions decay: the code a ``noqa`` silenced gets rewritten, the
telemetry a ``wall-clock`` annotation justified moves, and the comment
stays behind — an unearned exemption the next reader trusts.  The rules
therefore record every suppression they *consult and match* during a run
(:class:`~repro.analysis.suppressions.Suppressions` use-records), and the
audit compares that against the full inventory:

* a ``noqa=REPnnn`` entry is **live** iff it suppressed a finding of that
  rule in this run;
* a domain annotation is **live** iff some rule (per-file or flow)
  checked its key at its line — i.e. the annotated construct still exists
  and still triggers the rule that honours the key.

Everything else is stale and exits 1.  The audit runs the *full* rule set,
so annotations that only the flow rules consult (a ``no-undo`` justifying
an entry-point path, say) are correctly counted as live.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .engine import analyze_paths
from .rules.base import RuleContext
from .suppressions import KNOWN_ANNOTATIONS


def audit_suppressions(targets: Sequence[str]) -> Dict[str, object]:
    """Run every rule over ``targets`` and inventory all suppressions.

    Returns a JSON-ready report::

        {"suppressions": [{file, line, kind, rule, key, justification,
                           used}, ...],
         "total": N, "stale": M}

    ``stale`` counts entries with ``used == False``; callers treat a
    non-zero count as failure.
    """
    contexts: Dict[str, RuleContext] = {}
    analyze_paths(targets, contexts_out=contexts)
    entries: List[Dict[str, object]] = []
    for path in sorted(contexts):
        suppressions = contexts[path].suppressions
        for line in sorted(suppressions.noqa):
            for rule in sorted(suppressions.noqa[line]):
                entries.append(
                    {
                        "file": path,
                        "line": line,
                        "kind": "noqa",
                        "rule": rule,
                        "key": None,
                        "justification": None,
                        "used": (line, rule) in suppressions.used_noqa,
                    }
                )
        for line in sorted(suppressions.annotations):
            for key, justification in sorted(
                suppressions.annotations[line].items()
            ):
                entries.append(
                    {
                        "file": path,
                        "line": line,
                        "kind": "annotation",
                        "rule": KNOWN_ANNOTATIONS.get(key),
                        "key": key,
                        "justification": justification,
                        "used": (line, key) in suppressions.used_annotations,
                    }
                )
    stale = sum(1 for entry in entries if not entry["used"])
    return {"suppressions": entries, "total": len(entries), "stale": stale}


def render_audit(report: Dict[str, object]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
