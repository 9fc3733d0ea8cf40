"""Observability for the simulated shared-nothing cluster.

Zero-overhead-when-disabled span tracing + metrics for every execution
path (per-tuple reference, batched, forked worker pool, fault/recovery
drain).  The package answers "*why did this statement cost what it did?*"
— hop-by-hop — without perturbing the modeled ledger: the equivalence
suites run bit-identical with tracing on and off.

Quickstart::

    from repro.obs import attach_observability, collect_cluster_metrics
    from repro.obs import render_tree, to_chrome_trace

    obs = attach_observability(cluster)
    cluster.insert("A", rows)
    print(render_tree(obs.tracer))             # human tree view
    trace = to_chrome_trace(obs.tracer)        # chrome://tracing JSON
    prom = collect_cluster_metrics(cluster).to_prometheus()

Or from the shell: ``python -m repro.obs snapshot`` (see ``--help``).
"""

from .collect import (
    DISABLED,
    Observability,
    attach_observability,
    collect_cluster_metrics,
    detach_observability,
    key_digest,
)
from .export import (
    to_chrome_trace,
    validate_chrome_trace,
    validate_prometheus_range,
)
from .load import build_schedule, execute_schedule
from .metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    parse_prometheus,
    validate_prometheus,
)
from .render import render_chrome_trace, render_timeline, render_tree
from .timeseries import TimeSeriesCollector
from .tracer import NOOP_SPAN, NOOP_TRACER, NoopTracer, Span, Tracer

__all__ = [
    "DISABLED",
    "Observability",
    "attach_observability",
    "detach_observability",
    "collect_cluster_metrics",
    "key_digest",
    "Span",
    "Tracer",
    "NoopTracer",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "diff_snapshots",
    "validate_prometheus",
    "to_chrome_trace",
    "validate_chrome_trace",
    "render_tree",
    "render_chrome_trace",
    "validate_prometheus_range",
    "build_schedule",
    "execute_schedule",
    "LATENCY_BUCKETS",
    "parse_prometheus",
    "render_timeline",
    "TimeSeriesCollector",
]
