"""``python -m repro.analysis`` — the reprolint CLI.

Usage::

    python -m repro.analysis src/                      # text report, all rules
    python -m repro.analysis --format=json src/        # CI artifact
    python -m repro.analysis --rules=REP002,REP007 src/
    python -m repro.analysis --dot=callgraph.dot src/  # + call-graph export
    python -m repro.analysis --audit-suppressions src/
    python -m repro.analysis --list-rules
    python -m repro.analysis interleave --workers=2,4 --seeds=17

Exit status: 0 when clean, 1 when findings (or stale suppressions, or
divergent schedules) remain, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .engine import analyze_paths
from .flow import FLOW_RULES, build_project
from .reporters import exit_code, render_json, render_text
from .rules import RULES


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Domain-aware static checks for the repro engine "
        "(determinism, obs purity, envelope vocabulary, and the "
        "interprocedural charge-flow, taint, and undo-domination rules).",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="files or directories to analyze (default: src/ if present, "
        "else the current directory)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--dot",
        metavar="PATH",
        help="also write the project call graph as Graphviz DOT",
    )
    parser.add_argument(
        "--audit-suppressions",
        action="store_true",
        help="inventory every '# repro:' noqa/annotation as JSON and exit "
        "1 if any is stale (no rule consulted it this run)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and their annotation keys, then exit",
    )
    return parser


def _interleave_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis interleave",
        description="Seeded schedule-permutation race detector: drive the "
        "parallel engine's order decisions (envelope, refresh, reply, "
        "merge) through hundreds of distinct interleavings and assert "
        "bit-identical ledgers, network stats, and fragments; any "
        "divergence is delta-debugged to a minimal event-reorder witness.",
    )
    parser.add_argument(
        "--workers",
        default="2,4",
        metavar="COUNTS",
        help="comma-separated worker-pool sizes (default: 2,4)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=17,
        metavar="N",
        help="schedule seeds per configuration (default: 17)",
    )
    parser.add_argument(
        "--steps",
        type=int,
        default=14,
        metavar="N",
        help="statements per workload script (default: 14)",
    )
    parser.add_argument(
        "--methods",
        default="naive,auxiliary,global_index",
        metavar="NAMES",
        help="maintenance methods (default: naive,auxiliary,global_index)",
    )
    parser.add_argument(
        "--modes",
        default="eager,deferred",
        metavar="NAMES",
        help="maintenance timing modes (default: eager,deferred)",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report divergences without delta-debugging them",
    )
    return parser


def _interleave_main(argv: List[str]) -> int:
    from .interleave import run_detector

    args = _interleave_parser().parse_args(argv)
    try:
        workers = [int(w) for w in args.workers.split(",") if w.strip()]
    except ValueError:
        print(f"bad --workers value: {args.workers!r}", file=sys.stderr)
        return 2
    report = run_detector(
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        modes=tuple(m.strip() for m in args.modes.split(",") if m.strip()),
        workers=workers,
        seeds=range(args.seeds),
        steps=args.steps,
        shrink=not args.no_shrink,
        log=lambda message: print(message, file=sys.stderr),
    )
    print(report.summary())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "interleave":
        return _interleave_main(argv[1:])
    args = _parser().parse_args(argv)
    if args.list_rules:
        for rule_id in sorted({**RULES, **FLOW_RULES}):
            info = RULES.get(rule_id) or FLOW_RULES[rule_id]
            kind = "(flow) " if rule_id in FLOW_RULES else ""
            suffix = (
                f"  [annotation: # repro: {info.annotation}=<reason>]"
                if info.annotation
                else ""
            )
            print(f"{rule_id}  {kind}{info.summary}{suffix}")
        return 0

    targets = args.targets or (["src"] if os.path.isdir("src") else ["."])

    if args.audit_suppressions:
        from .audit import audit_suppressions, render_audit

        report = audit_suppressions(targets)
        sys.stdout.write(render_audit(report))
        if report["stale"]:
            print(
                f"{report['stale']} stale suppression(s) — remove them or "
                "re-justify against a live finding",
                file=sys.stderr,
            )
            return 1
        return 0

    only_rules = (
        [r.strip() for r in args.rules.split(",") if r.strip()]
        if args.rules
        else None
    )

    contexts = {} if args.dot else None
    try:
        result = analyze_paths(
            targets, only_rules=only_rules, contexts_out=contexts
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.dot and contexts is not None:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(build_project(contexts).graph.to_dot())
        print(f"wrote call graph to {args.dot}", file=sys.stderr)

    render = render_json if args.format == "json" else render_text
    sys.stdout.write(render(result))
    return exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
