"""The analysis engine: file discovery, rule dispatch, noqa.

``analyze_paths`` is the one entry point (the CLI and the tests both call
it).  Per file it parses the AST once, extracts ``# repro:`` comments with
:mod:`tokenize`, builds one :class:`RuleContext`, and runs every enabled
rule in id order, so reports are deterministic.  Framework-level problems
(syntax errors, malformed suppression comments) are reported under the
reserved id ``REP000`` — they cannot be noqa'd, because a file that cannot
be parsed cannot be trusted to suppress anything.

Paths are **module-relative**: rules address files as
``cluster/network.py``, never by filesystem location.  Discovery anchors
at the last ``repro`` component of each file's path when present (the real
package), else at the analysis root (the fixture trees the tests build).
"""

from __future__ import annotations

import ast
import os
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .findings import AnalysisResult, Finding
from .flow import FLOW_RULES, run_flow_rules
from .rules import RULES, RuleInfo
from .rules.base import RuleContext, compute_scopes
from .suppressions import parse_suppressions

#: Directories never analyzed (caches, VCS internals).
_SKIP_DIRS = {"__pycache__", ".git", ".mypy_cache", ".ruff_cache"}


def discover_files(targets: Sequence[str]) -> List[Tuple[str, str]]:
    """Resolve ``targets`` (files or directories) to a sorted list of
    ``(absolute_path, module_relative_path)`` pairs."""
    out: Dict[str, str] = {}
    for target in targets:
        target = os.path.abspath(target)
        if os.path.isfile(target):
            if target.endswith(".py"):
                out[target] = _module_relative(target, os.path.dirname(target))
            continue
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = sorted(
                d for d in dirnames if d not in _SKIP_DIRS
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    absolute = os.path.join(dirpath, filename)
                    out[absolute] = _module_relative(absolute, target)
    return sorted(out.items())


def _module_relative(absolute: str, root: str) -> str:
    """Path relative to the ``repro`` package when the file lives in one,
    else relative to the analysis root."""
    parts = absolute.split(os.sep)
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        relative = parts[anchor + 1 :]
        if relative:
            return "/".join(relative)
    return os.path.relpath(absolute, root).replace(os.sep, "/")


def analyze_paths(
    targets: Sequence[str],
    only_rules: Optional[Iterable[str]] = None,
    contexts_out: Optional[Dict[str, RuleContext]] = None,
) -> AnalysisResult:
    """Run every enabled rule (default: all) over ``targets``.

    The per-file rules run as each file is parsed; the interprocedural
    rules (REP007-REP009, :mod:`repro.analysis.flow`) then run over the
    same parsed files and share the noqa machinery.  The project call graph
    is built only when one of those is enabled.  ``contexts_out`` (the
    audit's hook) receives every file's :class:`RuleContext`, whose
    suppression objects carry the use-records accumulated by this run.
    """
    wanted = (
        set(RULES) | set(FLOW_RULES) if only_rules is None else set(only_rules)
    )
    unknown = wanted - set(RULES) - set(FLOW_RULES)
    if unknown:
        raise ValueError(f"unknown rule ids: {sorted(unknown)}")
    enabled = [RULES[rule_id] for rule_id in sorted(wanted & set(RULES))]
    flow_enabled = sorted(wanted & set(FLOW_RULES))
    result = AnalysisResult()
    raw: List[Finding] = []
    source_lines: Dict[str, List[str]] = {}
    contexts: Dict[str, RuleContext] = {}
    for absolute, relative in discover_files(targets):
        result.files_analyzed += 1
        file_findings, suppressed, lines, context = _analyze_file(
            absolute, relative, enabled
        )
        raw.extend(file_findings)
        result.suppressed += suppressed
        source_lines[relative] = lines
        if context is not None:
            contexts[relative] = context
    if flow_enabled:
        for finding in run_flow_rules(contexts, flow_enabled):
            context = contexts.get(finding.path)
            if context is not None and context.suppressions.is_noqa(
                finding.rule, finding.line
            ):
                result.suppressed += 1
            else:
                raw.append(finding)
    if contexts_out is not None:
        contexts_out.update(contexts)
    result.findings = sorted(
        (_with_snippet(f, source_lines.get(f.path, [])) for f in raw),
        key=lambda f: (f.path, f.line, f.column, f.rule),
    )
    return result


def _with_snippet(finding: Finding, lines: List[str]) -> Finding:
    """``finding`` with its whitespace-normalized source line attached."""
    if not 0 < finding.line <= len(lines):
        return finding
    return replace(finding, snippet=" ".join(lines[finding.line - 1].split()))


def _analyze_file(
    absolute: str, relative: str, rules: List[RuleInfo]
) -> Tuple[List[Finding], int, List[str], Optional[RuleContext]]:
    with open(absolute, "r", encoding="utf-8") as handle:
        source = handle.read()
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=absolute)
    except SyntaxError as exc:
        return (
            [
                Finding(
                    rule="REP000",
                    path=relative,
                    line=exc.lineno or 1,
                    column=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                )
            ],
            0,
            lines,
            None,
        )
    suppressions = parse_suppressions(source)
    findings: List[Finding] = [
        Finding(
            rule="REP000",
            path=relative,
            line=line,
            column=0,
            message=message,
        )
        for line, message in suppressions.errors
    ]
    context = RuleContext(
        path=relative,
        source=source,
        tree=tree,
        lines=lines,
        suppressions=suppressions,
        scopes=compute_scopes(tree),
    )
    suppressed = 0
    for info in rules:
        for finding in info.fn(context):
            if suppressions.is_noqa(finding.rule, finding.line):
                suppressed += 1
            else:
                findings.append(finding)
    return findings, suppressed, lines, context
