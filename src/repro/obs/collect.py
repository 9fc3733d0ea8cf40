"""The observability facade and cluster metric collection.

:class:`Observability` bundles one tracer and one metrics registry; the
:data:`DISABLED` singleton (no-op tracer, ``enabled=False``) is what every
cluster carries until :func:`attach_observability` swaps in a live one.
Instrumentation sites read ``cluster.obs`` dynamically, so attaching and
detaching is instantaneous and touches no engine state.

:func:`collect_cluster_metrics` is deliberately *pull*-based for everything
the engine already counts — ledger cells, network statistics, catalog row
counts, probe-cache counters.  Deriving the gauges from the very structures
the equivalence suites pin means the Prometheus export **agrees with the
ledger by construction** (a test cross-checks it), and the fault-free hot
path pays nothing for them.  Only genuinely transient facts (plan-cache
hits, fault retries, superstep timings) are pushed live, each behind an
``obs.enabled`` guard.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, ContextManager, Iterable, Optional

from .metrics import LATENCY_BUCKETS, MetricsRegistry
from .tracer import NOOP_TRACER, NoopTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import Cluster

__all__ = [
    "Observability",
    "DISABLED",
    "attach_observability",
    "detach_observability",
    "collect_cluster_metrics",
    "key_digest",
]


class Observability:
    """One tracer + one metrics registry, carried by a cluster."""

    __slots__ = ("enabled", "tracer", "metrics")

    def __init__(
        self,
        enabled: bool,
        tracer: "Tracer | NoopTracer",
        metrics: MetricsRegistry,
    ) -> None:
        self.enabled = enabled
        self.tracer = tracer
        self.metrics = metrics

    def span(self, name: str, **tags: object) -> "ContextManager[Any]":
        return self.tracer.span(name, **tags)

    def event(self, name: str, **tags: object) -> None:
        self.tracer.event(name, **tags)

    def observe_span_latency(self, span, kind: str, **labels: object) -> None:
        """Fold a finished span's wall-clock duration into the
        ``repro_stmt_latency_seconds`` histogram.

        The latency hook points (statement close in ``Cluster``, deferred
        refresh, query answer) call this instead of reading a clock
        themselves: the duration comes from the timestamps the tracer
        already recorded, so engine code stays clock-free (REP002) and the
        disabled facade pays one ``enabled`` check and nothing else.
        """
        if not self.enabled:
            return
        start_ns = getattr(span, "start_ns", None)
        end_ns = getattr(span, "end_ns", None)
        if start_ns is None or end_ns is None:  # NOOP_SPAN or still open
            return
        self.metrics.histogram(
            "repro_stmt_latency_seconds",
            "Wall-clock latency of statements, deferred refreshes, and "
            "read queries",
            buckets=LATENCY_BUCKETS,
        ).observe((end_ns - start_ns) / 1e9, kind=kind, **labels)


#: The shared disabled facade.  Its registry exists but is never written
#: to: every live-metric site is guarded by ``obs.enabled``.
DISABLED = Observability(False, NOOP_TRACER, MetricsRegistry())


def attach_observability(cluster: "Cluster") -> Observability:
    """Arm tracing + metrics on a cluster; returns the live facade.

    Instrumentation never perturbs the modeled ledger — the equivalence
    suites run with tracing on and off and assert bit-identical cells —
    so attaching mid-stream is always safe.
    """
    obs = Observability(True, Tracer(), MetricsRegistry())
    cluster.obs = obs
    cluster.network.obs = obs
    return obs


def detach_observability(cluster: "Cluster") -> None:
    """Restore the zero-overhead disabled facade."""
    cluster.obs = DISABLED
    cluster.network.obs = DISABLED


def key_digest(keys: Iterable[object]) -> int:
    """A deterministic CRC-32 digest of a join-key set.

    Traces tag hops with this instead of raw key values: compact, stable
    across processes (unlike ``hash``), and free of payload data.
    """
    crc = 0
    for key in sorted(keys, key=repr):
        crc = zlib.crc32(repr(key).encode("utf-8"), crc)
    return crc & 0xFFFFFFFF


# --------------------------------------------------------------- collection


def collect_cluster_metrics(
    cluster: "Cluster", registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Snapshot a cluster's accounted state into a metrics registry.

    Populates (all labelled, all derived from engine-pinned structures):

    * ``repro_ledger_ops_total{node,op,tag}`` — the cost ledger, cell by
      cell, plus ``repro_ledger_weighted_ios{node,tag}``, the paper's
      TW/RT inputs;
    * ``repro_workload_total_ios{tag}`` / ``repro_response_time_ios{tag}``;
    * ``repro_network_messages_total{src,dst}`` per link and the scalar
      delivery/fault counters (drops, retries, duplicates, backoff);
    * ``repro_catalog_rows{kind,name}`` — relations, views, and per-node
      ``repro_fragment_tuples{node,name}`` / ``repro_fragment_pages``;
    * ``repro_probe_cache_*{worker}`` — per-worker heavy-hitter cache
      counters (incl. totals flushed at catalog-epoch clears) when a
      worker pool is running.

    When the cluster has a live :class:`Observability` attached its own
    registry is used by default, so pushed metrics (plan-cache hits, fault
    retries, superstep timings) and pulled gauges export together.
    """
    if registry is None:
        obs = getattr(cluster, "obs", DISABLED)
        registry = obs.metrics if obs.enabled else MetricsRegistry()

    # -- ledger ----------------------------------------------------------
    ops = registry.gauge(
        "repro_ledger_ops_total", "Operations charged per (node, op, tag) cell"
    )
    weighted = registry.gauge(
        "repro_ledger_weighted_ios", "Weighted I/Os charged per node and tag"
    )
    params = cluster.ledger.params
    for (node, op, tag), count in cluster.ledger._cells.items():
        ops.set(count, node=node, op=op.value, tag=tag.value)
        weighted.inc(count * params.weight(op), node=node, tag=tag.value)
    snapshot = cluster.ledger.snapshot()
    tw = registry.gauge(
        "repro_workload_total_ios", "Total workload (weighted I/Os) per tag"
    )
    rt = registry.gauge(
        "repro_response_time_ios", "Busiest-node weighted I/Os per tag"
    )
    tags_seen = {tag for (_n, _o, tag) in cluster.ledger._cells}
    for tag in sorted(tags_seen, key=lambda t: t.value):
        tw.set(snapshot.total_workload(tags=[tag]), tag=tag.value)
        rt.set(snapshot.response_time(tags=[tag]), tag=tag.value)

    # -- network ---------------------------------------------------------
    stats = cluster.network.stats
    link_gauge = registry.gauge(
        "repro_network_messages_total", "Delivered cross-node messages per link"
    )
    for (src, dst), count in stats.by_link.items():
        link_gauge.set(count, src=src, dst=dst)
    scalars = registry.gauge(
        "repro_network_events_total", "Network delivery and fault event counters"
    )
    scalars.set(stats.messages, kind="messages")
    scalars.set(stats.local_deliveries, kind="local_deliveries")
    scalars.set(stats.drops, kind="drops")
    scalars.set(stats.duplicates, kind="duplicates")
    scalars.set(stats.retries, kind="retries")
    scalars.set(stats.backoff_slots, kind="backoff_slots")

    # -- catalog / storage ----------------------------------------------
    rows = registry.gauge("repro_catalog_rows", "Row counts per catalog object")
    for name in cluster.catalog.relations:
        rows.set(cluster.statistics.rows(name), kind="relation", name=name)
    for name in cluster.catalog.views:
        rows.set(cluster.statistics.rows(name), kind="view", name=name)
    fragment_tuples = registry.gauge(
        "repro_fragment_tuples", "Stored tuples per node fragment"
    )
    fragment_pages = registry.gauge(
        "repro_fragment_pages", "Heap pages per node fragment"
    )
    for node in cluster.nodes:
        for name, tuples, pages in node.storage_profile():
            fragment_tuples.set(tuples, node=node.node_id, name=name)
            fragment_pages.set(pages, node=node.node_id, name=name)

    # -- membership / replication ---------------------------------------
    membership = getattr(cluster, "membership", None)
    if membership is not None:
        topology = registry.gauge(
            "repro_membership", "Cluster topology state (nodes, epoch, K)"
        )
        topology.set(cluster.num_nodes, kind="nodes")
        topology.set(
            getattr(cluster, "peak_num_nodes", cluster.num_nodes),
            kind="peak_nodes",
        )
        topology.set(membership.epoch, kind="epoch")
        topology.set(membership.replication, kind="replication")
        replica_tuples = registry.gauge(
            "repro_replica_tuples",
            "Replicated tuples held per (target node, owner, fragment)",
        )
        for node in cluster.nodes:
            for owner, name in node.replica_slots():
                replica_tuples.set(
                    sum(node.replica_bag(owner, name).values()),
                    node=node.node_id, owner=owner, name=name,
                )
    node_load = registry.gauge(
        "repro_node_load_ios",
        "Weighted I/Os charged per node over the cluster's lifetime",
    )
    per_node = snapshot.per_node_ios()
    for node_id in range(cluster.num_nodes):
        node_load.set(per_node.get(node_id, 0.0), node=node_id)

    # -- probe cache -----------------------------------------------------
    engine = cluster._parallel_engine
    if engine is not None:
        busy = registry.gauge(
            "repro_worker_busy_ns",
            "Cumulative busy nanoseconds per pool worker",
        )
        for worker_id, busy_ns in enumerate(engine.worker_busy_ns):
            busy.set(busy_ns, worker=worker_id)
        # Transport telemetry (framed step envelopes only): never modeled
        # costs — the wire is an uncharged mirror of already-charged work.
        ipc_bytes = registry.gauge(
            "repro_ipc_bytes_total",
            "Framed envelope bytes shipped per pool worker and direction",
        )
        envelopes = registry.gauge(
            "repro_ipc_envelopes_total",
            "Step envelopes shipped per pool worker",
        )
        for worker_id in range(engine.workers):
            ipc_bytes.set(
                engine.ipc_tx_bytes[worker_id], worker=worker_id, direction="tx"
            )
            ipc_bytes.set(
                engine.ipc_rx_bytes[worker_id], worker=worker_id, direction="rx"
            )
            envelopes.set(engine.envelopes[worker_id], worker=worker_id)
        transport = registry.gauge(
            "repro_parallel_transport",
            "Pool-wide transport counters (statements, supersteps/barriers)",
        )
        transport.set(engine.statements, kind="statements")
        transport.set(engine.supersteps, kind="supersteps")
        # Live when the pool runs; the final drain snapshot otherwise —
        # either way the flushed_* accumulators keep epoch-cleared history.
        worker_stats_list = engine.probe_cache_stats()
        if worker_stats_list:
            cache_gauge = registry.gauge(
                "repro_probe_cache_events_total",
                "Per-worker heavy-hitter probe cache counters "
                "(incl. totals flushed at catalog-epoch clears)",
            )
            for worker_id, worker_stats in enumerate(worker_stats_list):
                for key, value in worker_stats.items():
                    cache_gauge.set(value, worker=worker_id, kind=key)
    return registry
