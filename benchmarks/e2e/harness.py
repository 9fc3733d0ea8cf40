"""Set-up, the measured loop, verification and the metric arithmetic.

One call to :func:`run_workload` is one benchmark run of one workload:

1. **Set-up** (timed as ``setup_s``): generate the data and the op stream
   from the seed, then build one cluster per maintenance method — load,
   view DDL, replication — through the public API.
2. **Rounds**: one warm-up round, then the planned measured rounds.  A
   round is one slice of the op stream executed by each of the three
   methods on its own cluster (closed loop, one client).  Only the engine
   call sits between the two clock reads of a statement; cost snapshots
   are folded after the round, outside every timer.
3. **Verification** (timed as ``verify_s``, outside every other timer):
   ``ConsistencyAuditor(cluster).audit().ok`` per method, the three
   methods' final view multisets must be equal, and every read's row
   count was checked against the generator's expectation as it ran.

With ``trace=True`` every second measured round runs with the
:mod:`trace` wrappers installed; the untraced rounds give the per-method
split and the reference for ``trace.overhead_ratio``.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import probes
from trace import Tracer
from workloads import METHODS, MULTIVIEW_SELECTS, NUM_NODES, OpStream, Spec

from repro import Cluster, ConsistencyAuditor, HashPartitioning, two_way_view
from repro.core.deferred import DeferredMaintainer, defer_view
from repro.costs import Op, Tag
from repro.query.engine import QueryEngine
from repro.workloads.tpcr import jv1_definition, jv2_definition, load_into
from repro.workloads.uniform import A_SCHEMA, B_SCHEMA

#: ``Spec.rounds`` is the plan at this run length (BENCHMARK.json's
#: ``run_seconds``); ``--seconds`` scales the plan linearly from it.
NOMINAL_SECONDS = 8
#: A run whose measured rounds overshoot ``--seconds`` by this factor stops
#: early (a slower box must not blow the driver's wall-clock cap).
DEADLINE_FACTOR = 1.5

_clock = time.perf_counter_ns
_MAINTAIN = (Tag.MAINTAIN,)

# ------------------------------------------------------------------ maths


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (the ``numpy.percentile`` default):
    rank ``fraction * (n - 1)`` between its two neighbouring order
    statistics."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median_rate(rows: Sequence[int], seconds: Sequence[float]) -> float:
    """Median over rounds of ``rows / seconds``."""
    return statistics.median(r / s for r, s in zip(rows, seconds))


# ----------------------------------------------------------------- set-up


def build_cluster(spec: Spec, stream: OpStream, method: str) -> Cluster:
    """One ready cluster: relations loaded, views defined under ``method``."""
    cluster = Cluster(num_nodes=NUM_NODES)
    if spec.kind == "tpcr":
        load_into(cluster, stream.dataset)
        for definition in (jv1_definition(), jv2_definition()):
            cluster.create_join_view(definition, method=method, strategy="inl")
    else:
        cluster.create_relation(A_SCHEMA, partitioned_on="a")
        cluster.create_relation(B_SCHEMA, partitioned_on="b")
        for relation in ("B", "A"):
            if stream.base_rows[relation]:
                cluster.insert(relation, stream.base_rows[relation])
        for index in range(spec.views):
            select = MULTIVIEW_SELECTS[index] if spec.views > 1 else None
            cluster.create_join_view(
                two_way_view(
                    f"JV{index}" if spec.views > 1 else "JV", "A", "c", "B", "d",
                    select=select, partitioning=HashPartitioning("e"),
                ),
                method=method, strategy="inl",
            )
    if spec.deferred_threshold:
        defer_view(cluster, "JV", flush_threshold=spec.deferred_threshold)
    if spec.replication:
        cluster.enable_replication(k=spec.replication)
    if spec.workers:
        # Armed after the load so the pool's per-statement counters cover
        # maintained statements only.
        cluster.workers = min(spec.workers, os.cpu_count() or 1)
    return cluster


# ------------------------------------------------------------- the rounds


@dataclass
class RoundStats:
    """What one method did in one round."""

    traced: bool
    seconds: float = 0.0           # every timed region, writes and reads
    rows: int = 0
    stmt_ns: List[int] = field(default_factory=list)
    read_ns: List[int] = field(default_factory=list)
    maintain_ios: float = 0.0      # the paper's TW, whole round
    response_ios: float = 0.0      # sum of max-per-node MAINTAIN I/Os
    ops: Dict[str, float] = field(default_factory=dict)
    messages: int = 0
    refreshes: int = 0
    refreshed_rows: int = 0


class MethodRun:
    """One method's cluster and everything measured on it."""

    def __init__(self, spec: Spec, method: str, cluster: Cluster) -> None:
        self.spec = spec
        self.method = method
        self.cluster = cluster
        self.engine = QueryEngine(cluster)
        deferred = [
            view.maintainer for view in cluster.catalog.views.values()
            if isinstance(view.maintainer, DeferredMaintainer)
        ]
        self.deferred: Optional[DeferredMaintainer] = deferred[0] if deferred else None
        self.rounds: List[RoundStats] = []
        self.attempted = 0
        self.failed = 0
        self.statements = 0            # write statements, warm-up included
        self._write = self._transactional if spec.transactional else self._autocommit

    def _autocommit(self, op):
        call = getattr(self.cluster, op[0])
        start = _clock()
        snapshot = call(op[1], op[2])
        return _clock() - start, snapshot

    def _transactional(self, op):
        kind, relation, payload = op
        cluster = self.cluster
        start = _clock()
        with cluster.transaction() as txn:
            if kind == "rollback":
                txn.insert(relation, payload)
                txn.rollback()
            else:
                getattr(txn, kind)(relation, payload)
        return _clock() - start, txn.report.snapshot

    def _read(self, query, stats: RoundStats):
        """A read with refresh-on-read; returns (ns, rows returned)."""
        deferred = self.deferred
        if deferred is None:
            start = _clock()
            result = self.engine.answer(query)
            return _clock() - start, len(result.rows)
        # The refresh a stale read forces is maintenance work: book its
        # I/Os to the round's response time (snapshots outside the timer).
        before = self.cluster.ledger.snapshot() if deferred.is_stale else None
        start = _clock()
        report = deferred.flush_if_stale()
        result = self.engine.answer(query)
        elapsed = _clock() - start
        if before is not None:
            spent = self.cluster.ledger.diff_since(before)
            stats.response_ios += spent.maintenance_response_time()
        if report is not None:
            stats.refreshes += 1
            stats.refreshed_rows += report.flushed_inserts + report.flushed_deletes
        return elapsed, len(result.rows)

    def run_round(self, ops, tracer: Optional[Tracer], record: bool = True) -> None:
        cluster = self.cluster
        stats = RoundStats(traced=tracer is not None)
        before = cluster.ledger.snapshot()
        messages = cluster.network.stats.messages
        snapshots = []
        write = self._write
        for op in ops:
            if tracer is not None:
                tracer.statement += 1
            try:
                if op[0] == "read":
                    elapsed, returned = self._read(op[1], stats)
                    stats.read_ns.append(elapsed)
                    if returned != op[2]:
                        self._fail(f"read returned {returned} rows, expected {op[2]}")
                else:
                    elapsed, snapshot = write(op)
                    stats.stmt_ns.append(elapsed)
                    stats.rows += len(op[2])
                    snapshots.append(snapshot)
            except Exception:  # a raised statement is one failed op; run on
                self._fail(traceback.format_exc())
        self.attempted += len(ops)
        self.statements += len(stats.stmt_ns)
        if not record:
            return
        stats.seconds = (sum(stats.stmt_ns) + sum(stats.read_ns)) / 1e9
        stats.response_ios += sum(
            snapshot.maintenance_response_time() for snapshot in snapshots
        )
        spent = cluster.ledger.diff_since(before)
        stats.maintain_ios = spent.maintenance_workload()
        maintain = spent.op_breakdown(_MAINTAIN)
        stats.ops = {
            "search": maintain.get(Op.SEARCH, 0.0),
            "fetch": maintain.get(Op.FETCH, 0.0),
            "insert": maintain.get(Op.INSERT, 0.0),
            "base_ios": spent.total_workload((Tag.BASE,)),
            "view_ios": spent.total_workload((Tag.VIEW,)),
            "replica_writes": spent.op_count(Op.INSERT, (Tag.REPLICA,)),
        }
        stats.messages = cluster.network.stats.messages - messages
        self.rounds.append(stats)

    def _fail(self, why: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"[{self.spec.name}/{self.method}] failed op: {why}", file=sys.stderr)


# ----------------------------------------------------------- verification


def verify(runs: Dict[str, MethodRun]) -> Dict[str, bool]:
    """method -> whether its final state is right.

    A failed audit condemns that method; view multisets that differ across
    methods condemn all three (nothing says which one is wrong).
    """
    verdict: Dict[str, bool] = {}
    contents: Dict[str, Dict[str, Counter]] = {}
    for method, run in runs.items():
        report = ConsistencyAuditor(run.cluster).audit()
        verdict[method] = report.ok
        if not report.ok:
            print(f"[{run.spec.name}/{method}] {report.summary()}", file=sys.stderr)
        contents[method] = {
            name: Counter(run.cluster.view_rows(name))
            for name in run.cluster.catalog.views
        }
    first = contents[METHODS[0]]
    if any(contents[method] != first for method in METHODS[1:]):
        print("final view contents differ across methods", file=sys.stderr)
        return {method: False for method in runs}
    return verdict


def tally(runs: Dict[str, MethodRun], verdict: Dict[str, bool]) -> Tuple[int, int]:
    """(attempted, failed) ops: a method whose final state is wrong fails
    every op it ran, otherwise only the ops that raised or misread."""
    attempted = sum(run.attempted for run in runs.values())
    failed = sum(
        run.failed if verdict[method] else run.attempted
        for method, run in runs.items()
    )
    return attempted, failed


# ---------------------------------------------------------------- the run


def _settle_heap() -> None:
    """Collect, then move every survivor to the permanent generation.

    The collector stays enabled while statements run, but what it walks is
    then what those statements allocated, not the tables built so far:
    with the default heuristics a full collection over a few hundred
    thousand table objects lands on whichever statement crosses a threshold
    and made identical 2,048-row inserts take anywhere from 36 to 55 ms.
    """
    gc.collect()
    gc.freeze()


def planned_rounds(spec: Spec, seconds: float) -> int:
    return max(2, round(spec.rounds * seconds / NOMINAL_SECONDS))


def run_workload(
    spec: Spec,
    seed: int,
    seconds: float = NOMINAL_SECONDS,
    trace: bool = False,
    rounds: Optional[int] = None,
    trace_out: Optional[str] = None,
) -> Dict[str, object]:
    """Run one workload once; returns the full result (see README).

    ``rounds`` fixes the number of measured rounds and disables the
    deadline: for a given ``(seed, rounds)`` every count repeats exactly.
    """
    started = time.perf_counter()
    stream = OpStream(spec, seed)
    datagen_s = time.perf_counter() - started
    runs: Dict[str, MethodRun] = {}
    build_s: Dict[str, List[float]] = {}
    try:
        for method in METHODS:
            build_s[method] = []
            for _ in range(spec.setup_repeats):
                started = time.perf_counter()
                cluster = build_cluster(spec, stream, method)
                build_s[method].append(time.perf_counter() - started)
            runs[method] = MethodRun(spec, method, cluster)
        setup_s = datagen_s + sum(statistics.median(build_s[m]) for m in METHODS)

        tracer = Tracer(probes.measure()) if trace else None
        warm_up = stream.next_round()
        for run in runs.values():
            _settle_heap()
            run.run_round(warm_up, None, record=False)
        plan = rounds if rounds is not None else planned_rounds(spec, seconds)
        truncated = False
        started = time.perf_counter()
        for index in range(1, plan + 1):
            ops = stream.next_round()
            active = tracer if tracer is not None and index % 2 == 0 else None
            if active is not None:
                active.install()
            try:
                for run in runs.values():
                    _settle_heap()
                    run.run_round(ops, active)
            finally:
                if active is not None:
                    active.uninstall()
            if (
                rounds is None and 2 <= index < plan
                and time.perf_counter() - started > DEADLINE_FACTOR * seconds
            ):
                truncated = True
                break
        pool = _pool_metrics(runs) if trace else {}

        started = time.perf_counter()
        verdict = verify(runs)
        verify_s = time.perf_counter() - started
    finally:
        gc.unfreeze()
        for run in runs.values():
            run.cluster.close()

    attempted, failed = tally(runs, verdict)
    result: Dict[str, object] = {
        "workload": spec.name,
        "seed": seed,
        "rounds": len(runs[METHODS[0]].rounds),
        "truncated": truncated,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_ratio": failed / attempted,
        "cpus": os.cpu_count(),
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        result["per_layer"] = _per_layer(runs, tracer, pool, verify_s)
        if trace_out:
            tracer.write_chrome(trace_out)
    else:
        result["end_to_end"] = _end_to_end(runs, setup_s, peak_rss_mb)
        round_rows, round_seconds = _round_totals(runs)
        result["round_rows"], result["round_seconds"] = round_rows, round_seconds
        result["samples"] = {
            "statements": sum(len(r.stmt_ns) for run in runs.values() for r in run.rounds),
            "reads": sum(len(r.read_ns) for run in runs.values() for r in run.rounds),
        }
    return result


# ---------------------------------------------------------------- metrics


def _pooled_ms(runs, attribute: str, traced: Optional[bool] = None) -> List[float]:
    return [
        value / 1e6
        for run in runs.values()
        for stats in run.rounds
        if traced is None or stats.traced is traced
        for value in getattr(stats, attribute)
    ]


def _round_totals(runs, traced: Optional[bool] = None):
    """Per round, summed over the three methods: (rows, seconds)."""
    rows, seconds = [], []
    for per_round in zip(*(run.rounds for run in runs.values())):
        if traced is None or per_round[0].traced is traced:
            rows.append(sum(stats.rows for stats in per_round))
            seconds.append(sum(stats.seconds for stats in per_round))
    return rows, seconds


def faster_half(rates: Sequence[float]) -> List[int]:
    """Indexes of the faster half (rounded up) of the rounds.

    The sandbox this runs on slows down by 30-70 % in phases of seconds to
    tens of seconds.  Timing metrics are taken from the faster half of the
    measured rounds, so a slow phase has to cover more than half of a run
    before it moves a number (with every round counted, three of ten
    identical runs landed 25-40 % off).  The work is fixed, so on a quiet
    machine the same rounds are picked on every run and on both sides of a
    comparison; counts always cover every round.
    """
    ranked = sorted(range(len(rates)), key=rates.__getitem__, reverse=True)
    return sorted(ranked[: (len(rates) + 1) // 2])


def _end_to_end(runs, setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
    rows, seconds = _round_totals(runs)
    every = [stats for run in runs.values() for stats in run.rounds]
    quiet = faster_half([r / s for r, s in zip(rows, seconds)])
    statements, reads = (
        [ns / 1e6 for run in runs.values() for index in quiet
         for ns in getattr(run.rounds[index], attribute)]
        for attribute in ("stmt_ns", "read_ns")
    )
    return {
        "rows_per_s": median_rate(
            [rows[index] for index in quiet], [seconds[index] for index in quiet]
        ),
        "stmt_p50_ms": percentile(statements, 0.50),
        "stmt_p95_ms": percentile(statements, 0.95),
        "read_p50_ms": percentile(reads, 0.50),
        "tw_ios_per_row": sum(s.maintain_ios for s in every) / sum(rows),
        "resp_ios_per_stmt": (
            sum(s.response_ios for s in every) / sum(len(s.stmt_ns) for s in every)
        ),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def _pool_metrics(runs) -> Dict[str, float]:
    """The worker pool's public counters, summed over the three clusters
    (read while the pools are still alive)."""
    supersteps = envelopes = ipc_bytes = hits = lookups = 0
    skews = []
    statements = sum(run.statements for run in runs.values())
    for run in runs.values():
        engine = run.cluster._parallel_engine  # the only handle to the pool
        if engine is None:
            continue
        supersteps += engine.supersteps
        envelopes += sum(engine.envelopes)
        ipc_bytes += sum(engine.ipc_tx_bytes) + sum(engine.ipc_rx_bytes)
        if min(engine.worker_busy_ns) > 0:
            skews.append(max(engine.worker_busy_ns) / min(engine.worker_busy_ns))
        for cache in engine.probe_cache_stats():
            hits += cache.get("hits", 0)
            lookups += cache.get("hits", 0) + cache.get("misses", 0)
    return {
        "cluster.parallel.supersteps_per_stmt": supersteps / statements,
        "cluster.parallel.ipc_bytes_per_stmt": ipc_bytes / statements,
        "cluster.parallel.envelopes_per_stmt": envelopes / statements,
        "cluster.parallel.worker_busy_skew": max(skews, default=0.0),
        "cluster.probe_cache.hit_ratio": hits / lookups if lookups else 0.0,
    }


def _per_layer(runs, tracer: Tracer, pool, verify_s: float) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    untraced = [s for run in runs.values() for s in run.rounds if not s.traced]
    traced = [s for run in runs.values() for s in run.rounds if s.traced]
    every = untraced + traced
    rows = sum(s.rows for s in every)
    traced_rows = sum(s.rows for s in traced)

    for method, run in runs.items():
        mine = [s for s in run.rounds if not s.traced]
        metrics[f"core.{method}.rows_s"] = median_rate(
            [s.rows for s in mine], [s.seconds for s in mine]
        )
        metrics[f"core.{method}.stmt_p50_ms"] = percentile(
            [ns / 1e6 for s in mine for ns in s.stmt_ns], 0.50
        )
    statements = _pooled_ms(runs, "stmt_ns", traced=False)
    metrics["cluster.stmt_p99_ms"] = percentile(statements, 0.99)
    metrics["cluster.stmt_max_ms"] = max(statements)
    metrics["query.engine.read_p95_ms"] = percentile(
        _pooled_ms(runs, "read_ns", traced=False), 0.95
    )

    self_s = tracer.layer_self_seconds()
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_s"] = seconds
    for layer, name in (
        ("costs.ledger", "charges_per_row"),
        ("cluster.network", "calls_per_row"),
        ("cluster.partitioning", "calls_per_row"),
        ("faults.undo", "records_per_row"),
    ):
        metrics[f"{layer}.{name}"] = tracer.leaf_calls(layer) / traced_rows
    calls = tracer.calls
    metrics["cluster.node.write.calls_per_row"] = sum(
        calls[f"Node.{name}"]
        for name in ("insert", "insert_many", "delete_matching",
                     "delete_by_rowid", "gi_insert", "gi_delete", "replica_apply")
    ) / traced_rows
    metrics["cluster.node.probe.calls_per_row"] = sum(
        calls[f"Node.{name}"]
        for name in ("index_probe", "gi_probe", "fetch_by_rowids", "scan")
    ) / traced_rows
    charged = tracer.probes_executed + tracer.probes_memoized
    metrics["core.maintenance.probe_exec_ratio"] = (
        tracer.probes_executed / charged if charged else 0.0
    )
    metrics["query.engine.calls"] = float(calls["QueryEngine.answer"])

    metrics["cluster.network.msgs_per_row"] = sum(s.messages for s in every) / rows
    for key, name in (
        ("search", "costs.ledger.search_per_row"),
        ("fetch", "costs.ledger.fetch_per_row"),
        ("insert", "costs.ledger.insert_per_row"),
        ("base_ios", "costs.ledger.base_ios_per_row"),
        ("view_ios", "costs.ledger.view_ios_per_row"),
        ("replica_writes", "cluster.membership.replica.writes_per_row"),
    ):
        metrics[name] = sum(s.ops[key] for s in every) / rows
    refreshes = sum(s.refreshes for s in every)
    metrics["core.deferred.refreshes"] = float(refreshes)
    metrics["core.deferred.rows_per_refresh"] = (
        sum(s.refreshed_rows for s in every) / refreshes if refreshes else 0.0
    )

    shared = [run.cluster.multi_view_stats for run in runs.values()]
    shared_statements = sum(s.statements for s in shared)
    probes_seen = sum(s.probes_executed + s.probes_deduped for s in shared)
    metrics["core.shared.partition_passes_per_stmt"] = (
        sum(s.partition_passes for s in shared) / shared_statements
        if shared_statements else 0.0
    )
    metrics["core.shared.probes_deduped_ratio"] = (
        sum(s.probes_deduped for s in shared) / probes_seen if probes_seen else 0.0
    )
    metrics.update(pool)
    metrics.update(tracer.unit_ns)

    traced_wall = sum(s.seconds for s in traced)
    metrics["layers.coverage_ratio"] = sum(self_s.values()) / traced_wall
    plain_rows, plain_seconds = _round_totals(runs, traced=False)
    traced_round_rows, traced_seconds = _round_totals(runs, traced=True)
    metrics["trace.overhead_ratio"] = (
        median_rate(plain_rows, plain_seconds)
        / median_rate(traced_round_rows, traced_seconds)
    )
    metrics["verify_s"] = verify_s
    return metrics
