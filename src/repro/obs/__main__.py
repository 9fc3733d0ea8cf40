"""``python -m repro.obs`` — snapshot, diff, or render observability data.

Subcommands::

    snapshot   run a traced maintenance workload and write trace.json,
               metrics.prom, and metrics.json into --out
    diff       per-sample deltas between two metrics.json snapshots
    render     tree view of an exported Chrome-trace JSON file
    timeline   run the seeded load driver sampling metrics on a fixed
               cadence; write timeline.jsonl + timeline-range.json and
               print a sparkline view

Examples::

    PYTHONPATH=src python -m repro.obs snapshot --smoke --out obs-artifacts
    PYTHONPATH=src python -m repro.obs snapshot --method global_index --workers 2
    PYTHONPATH=src python -m repro.obs diff run-a/metrics.json run-b/metrics.json
    PYTHONPATH=src python -m repro.obs render obs-artifacts/trace.json
    PYTHONPATH=src python -m repro.obs timeline --smoke --out obs-artifacts
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from .collect import attach_observability, collect_cluster_metrics
from .export import (
    to_chrome_trace,
    validate_chrome_trace,
    validate_prometheus_range,
)
from .metrics import diff_snapshots, validate_prometheus
from .render import render_chrome_trace, render_timeline, render_tree


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from ..workloads.skewed import SkewedJoinWorkload, build_skewed_cluster

    rows_total = 240 if args.smoke else args.rows
    num_nodes = 4 if args.smoke else args.nodes
    workload = SkewedJoinWorkload(
        num_keys=16 if args.smoke else 64, fanout=4, skew=1.2
    )
    workload = replace(workload, seed=args.seed)
    cluster = build_skewed_cluster(
        workload, num_nodes=num_nodes, method=args.method, strategy="inl"
    )
    if args.workers:
        cluster.workers = args.workers
    obs = attach_observability(cluster)
    try:
        rows = workload.a_rows(rows_total)
        size = max(1, args.statement_size)
        for start in range(0, len(rows), size):
            cluster.insert("A", rows[start : start + size])
        registry = collect_cluster_metrics(cluster)
    finally:
        cluster.close()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = to_chrome_trace(obs.tracer, process_name=f"repro/{args.method}")
    problems = validate_chrome_trace(trace) + validate_prometheus(
        registry.to_prometheus()
    )
    (out_dir / "trace.json").write_text(json.dumps(trace, indent=2) + "\n")
    (out_dir / "metrics.prom").write_text(registry.to_prometheus())
    (out_dir / "metrics.json").write_text(
        json.dumps(registry.snapshot(), indent=2, sort_keys=True) + "\n"
    )
    print(render_tree(obs.tracer, max_spans=args.max_spans))
    print()
    print(
        f"method={args.method} workers={args.workers or 'serial'} "
        f"rows={rows_total} spans={obs.tracer.span_count()}"
    )
    print(f"wrote {out_dir}/trace.json, metrics.prom, metrics.json")
    if problems:  # pragma: no cover - self-check of freshly built exports
        for problem in problems:
            print(f"export problem: {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from ..core.deferred import defer_view
    from ..workloads.skewed import SkewedJoinWorkload, build_skewed_cluster
    from .load import build_schedule, execute_schedule
    from .timeseries import TimeSeriesCollector

    total_ops = 30 if args.smoke else args.ops
    num_nodes = 4 if args.smoke else args.nodes
    workload = SkewedJoinWorkload(
        num_keys=16 if args.smoke else 64, fanout=4, skew=1.2
    )
    workload = replace(workload, seed=args.seed)
    cluster = build_skewed_cluster(
        workload, num_nodes=num_nodes, method=args.method, strategy="inl"
    )
    if args.workers:
        cluster.workers = args.workers
    attach_observability(cluster)
    deferred = args.mode == "deferred"
    wrapper = (
        defer_view(cluster, "JV", flush_threshold=4 * args.statement_size)
        if deferred
        else None
    )
    schedule = build_schedule(
        workload,
        total_ops=total_ops,
        statement_size=args.statement_size,
        read_fraction=args.read_fraction,
        seed=args.seed,
        deferred=deferred,
    )
    collector = TimeSeriesCollector(
        lambda: collect_cluster_metrics(cluster), capacity=args.capacity
    )
    try:
        execute_schedule(
            cluster,
            schedule,
            refresh=wrapper.refresh if wrapper is not None else None,
            registry=cluster.obs.metrics,
            collector=collector,
            cadence=args.cadence,
            method=args.method,
            mode=args.mode,
        )
        registry = collect_cluster_metrics(cluster)
    finally:
        cluster.close()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    range_doc = collector.to_prometheus_range()
    problems = validate_prometheus_range(range_doc) + validate_prometheus(
        registry.to_prometheus()
    )
    (out_dir / "timeline.jsonl").write_text(collector.to_jsonl())
    (out_dir / "timeline-range.json").write_text(
        json.dumps(range_doc, indent=2, sort_keys=True) + "\n"
    )
    (out_dir / "metrics.prom").write_text(registry.to_prometheus())
    print(render_timeline(collector, metrics=args.metric or None))
    print()
    print(
        f"method={args.method} mode={args.mode} ops={len(schedule)} "
        f"samples={len(collector)}"
    )
    print(f"wrote {out_dir}/timeline.jsonl, timeline-range.json, metrics.prom")
    if problems:  # pragma: no cover - self-check of freshly built exports
        for problem in problems:
            print(f"export problem: {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    before = json.loads(Path(args.before).read_text())
    after = json.loads(Path(args.after).read_text())
    deltas = diff_snapshots(before, after)
    if not deltas:
        print("no metric differences")
        return 0
    for name, samples in deltas.items():
        print(name)
        for labels, delta in sorted(samples.items()):
            sign = "+" if delta > 0 else ""
            print(f"  {labels or '(no labels)'}: {sign}{delta:g}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    doc = json.loads(Path(args.trace).read_text())
    problems = validate_chrome_trace(doc)
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    print(render_chrome_trace(doc, max_spans=args.max_spans))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Trace, meter, and inspect the simulated cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    snapshot = sub.add_parser(
        "snapshot", help="run a traced workload and write trace + metrics"
    )
    snapshot.add_argument("--method", default="auxiliary",
                          choices=("naive", "auxiliary", "global_index", "hybrid"))
    snapshot.add_argument("--workers", type=int, default=0,
                          help="fork-based worker pool size (0 = serial)")
    snapshot.add_argument("--rows", type=int, default=960)
    snapshot.add_argument("--nodes", type=int, default=8)
    snapshot.add_argument("--statement-size", type=int, default=40)
    snapshot.add_argument("--seed", type=int, default=42)
    snapshot.add_argument("--smoke", action="store_true",
                          help="tiny CI-sized configuration")
    snapshot.add_argument("--out", default="obs-artifacts")
    snapshot.add_argument("--max-spans", type=int, default=60)
    snapshot.set_defaults(func=_cmd_snapshot)

    timeline = sub.add_parser(
        "timeline", help="run the load driver sampling metrics on a cadence"
    )
    timeline.add_argument("--method", default="auxiliary",
                          choices=("naive", "auxiliary", "global_index", "hybrid"))
    timeline.add_argument("--mode", default="eager",
                          choices=("eager", "deferred"))
    timeline.add_argument("--workers", type=int, default=0,
                          help="fork-based worker pool size (0 = serial)")
    timeline.add_argument("--ops", type=int, default=120,
                          help="scheduled operations (updates + reads)")
    timeline.add_argument("--nodes", type=int, default=8)
    timeline.add_argument("--statement-size", type=int, default=8)
    timeline.add_argument("--read-fraction", type=float, default=0.25)
    timeline.add_argument("--cadence", type=int, default=8,
                          help="sample the registry every N completed ops")
    timeline.add_argument("--capacity", type=int, default=240,
                          help="ring buffer size (oldest samples evicted)")
    timeline.add_argument("--seed", type=int, default=42)
    timeline.add_argument("--smoke", action="store_true",
                          help="tiny CI-sized configuration")
    timeline.add_argument("--out", default="obs-artifacts")
    timeline.add_argument("--metric", action="append", default=[],
                          help="restrict the rendered view to these "
                          "metric-name prefixes (repeatable)")
    timeline.set_defaults(func=_cmd_timeline)

    diff = sub.add_parser("diff", help="delta between two metrics.json files")
    diff.add_argument("before")
    diff.add_argument("after")
    diff.set_defaults(func=_cmd_diff)

    render = sub.add_parser("render", help="tree view of a Chrome-trace file")
    render.add_argument("trace")
    render.add_argument("--max-spans", type=int, default=200)
    render.set_defaults(func=_cmd_render)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
