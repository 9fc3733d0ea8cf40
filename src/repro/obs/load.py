"""Load driver: a seeded mixed schedule, executed once and measured.

A deterministic schedule of update statements, mixed read queries and
(for deferred views) a final refresh runs exactly once against the
cluster, each operation's wall-clock *service time* measured.  The
schedule is a pure function of its seed — measurement wraps the calls but
never steers them, so ledger cells, network stats, and fragment contents
are bit-identical with measurement on or off (pinned by test).

Service times land in a log-bucketed :class:`~repro.obs.metrics.Histogram`
(``repro_stmt_latency_seconds``); an optional
:class:`~repro.obs.timeseries.TimeSeriesCollector` samples the registry on
the cumulative-service-time clock, which is what
``python -m repro.obs timeline`` renders.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .metrics import LATENCY_BUCKETS, MetricsRegistry
from .timeseries import TimeSeriesCollector

__all__ = [
    "LoadOp",
    "OpTiming",
    "build_schedule",
    "execute_schedule",
]

#: Cadence (in completed operations) of time-series sampling during a run.
DEFAULT_SAMPLE_CADENCE = 16


@dataclass(frozen=True)
class LoadOp:
    """One scheduled operation: an update statement, a read, or a refresh."""

    kind: str                       # "update" | "read" | "refresh"
    rows: Tuple = ()                # update: the A-rows of the statement
    query: Optional[object] = None  # read: a repro.query.Query


@dataclass(frozen=True)
class OpTiming:
    """One executed operation's measured wall-clock service time."""

    kind: str
    seconds: float


def build_schedule(
    workload,
    total_ops: int,
    statement_size: int,
    read_fraction: float,
    seed: int,
    deferred: bool = False,
) -> List[LoadOp]:
    """A seeded mixed schedule of update statements and read queries.

    Updates draw consecutive ``workload.a_rows`` slices (disjoint across
    the schedule, so rowids match any other driver of the same workload).
    Reads are built against rows already inserted by the schedule: half
    pin the view's partitioning attribute ``A.e`` with an equality filter
    (the single-node view-probe path), half ask the unpinned join (priced
    between view scan and base join).  ``deferred`` appends one explicit
    refresh op so queued deltas are always flushed inside the measured
    window.  Deterministic in (workload, seed, sizes) alone.
    """
    from ..query.query import Comparison, Filter, Query
    from ..core.view import JoinCondition

    if total_ops < 1:
        raise ValueError("total_ops must be >= 1")
    rng = random.Random(seed)
    ops: List[LoadOp] = []
    inserted_e: List[object] = []
    next_row_start = 0
    join = (JoinCondition("A", "c", "B", "d"),)
    for _ in range(total_ops):
        if inserted_e and rng.random() < read_fraction:
            if rng.random() < 0.5:
                pinned = inserted_e[rng.randrange(len(inserted_e))]
                query = Query(
                    relations=("A", "B"),
                    select=(("A", "a"), ("A", "e"), ("B", "f")),
                    conditions=join,
                    filters=(Filter("A", "e", Comparison.EQ, pinned),),
                )
            else:
                query = Query(
                    relations=("A", "B"),
                    select=(("A", "e"), ("B", "f")),
                    conditions=join,
                )
            ops.append(LoadOp(kind="read", query=query))
        else:
            rows = tuple(workload.a_rows(statement_size, starting_at=next_row_start))
            next_row_start += statement_size
            inserted_e.extend(row[2] for row in rows)
            ops.append(LoadOp(kind="update", rows=rows))
    if deferred:
        ops.append(LoadOp(kind="refresh"))
    return ops


def execute_schedule(
    cluster,
    ops: Sequence[LoadOp],
    refresh: Optional[Callable[[], object]] = None,
    measure: bool = True,
    registry: Optional[MetricsRegistry] = None,
    collector: Optional[TimeSeriesCollector] = None,
    cadence: int = DEFAULT_SAMPLE_CADENCE,
    **labels: object,
) -> List[OpTiming]:
    """Run every op once, in order, optionally measuring service times.

    ``measure=False`` executes the identical op sequence with no clock
    reads and no metric writes — the bit-identity control.  ``registry``
    (measurement only) receives ``repro_stmt_latency_seconds`` histogram
    observations and ``repro_load_ops_total`` counts, labelled by op kind
    plus any extra ``labels``; ``collector`` is sampled every ``cadence``
    completed ops on the cumulative-service-time clock, so timeline
    exports are deterministic in op count, not in wall time.
    """
    from ..query.engine import QueryEngine

    engine = QueryEngine(cluster)
    histogram = counter = None
    if measure and registry is not None:
        histogram = registry.histogram(
            "repro_stmt_latency_seconds",
            "Per-operation wall-clock service time",
            buckets=LATENCY_BUCKETS,
        )
        counter = registry.counter(
            "repro_load_ops_total", "Operations executed by the load driver"
        )
    timings: List[OpTiming] = []
    clock = 0.0
    for index, op in enumerate(ops):
        start = time.perf_counter_ns() if measure else 0
        if op.kind == "update":
            cluster.insert("A", list(op.rows))
        elif op.kind == "read":
            engine.answer(op.query)
        elif op.kind == "refresh":
            if refresh is None:
                raise ValueError("schedule contains a refresh op but no refresh hook")
            refresh()
        else:  # pragma: no cover - schedule builder emits known kinds
            raise ValueError(f"unknown op kind {op.kind!r}")
        seconds = (time.perf_counter_ns() - start) / 1e9 if measure else 0.0
        timings.append(OpTiming(op.kind, seconds))
        clock += seconds
        if histogram is not None:
            histogram.observe(seconds, kind=op.kind, **labels)
            counter.inc(kind=op.kind, **labels)
        if collector is not None and (index + 1) % cadence == 0:
            collector.sample(clock)
    if collector is not None and len(ops) % cadence != 0:
        collector.sample(clock)  # final partial window
    return timings
