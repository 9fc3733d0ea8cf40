"""Parallel worker-pool engine ↔ serial engines equivalence.

ISSUE 3's acceptance bar: a cluster running with ``workers=W`` (fork-based
node-worker pool, BSP supersteps, deterministic ledger merge, heavy-hitter
probe cache) must produce **byte-identical** ledger cells, network
statistics, and fragment contents (per node, in storage order) compared to
the serial batched engine — which PR 2's suite already pins to the
tuple-at-a-time reference engine.  A direct reference-engine comparison is
included as well, so the chain does not depend on transitivity alone.

Worker counts come from ``REPRO_PARALLEL_WORKERS`` (comma-separated,
default ``1,3``) so CI can pin the matrix to its core budget.
"""

import os
import random

import pytest

from repro import Cluster, HashPartitioning, Schema, two_way_view
from repro.cluster.parallel import fork_available
from repro.cluster.partitioning import RoundRobinPartitioning
from repro.core.deferred import defer_view
from repro.core.view import JoinCondition, JoinViewDefinition
from tests.conftest import assert_equivalent, fragment_contents, run_ops

WORKER_COUNTS = tuple(
    int(token)
    for token in os.environ.get("REPRO_PARALLEL_WORKERS", "1,3").split(",")
    if token.strip()
)
METHODS = ("naive", "auxiliary", "global_index", "hybrid")
STRATEGIES = ("inl", "sort_merge", "auto")

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable on this platform"
)


def _build(
    method,
    strategy,
    workers,
    batch=True,
    partitioning=None,
    num_nodes=4,
    probe_cache_threshold=3,
):
    cluster = Cluster(
        num_nodes=num_nodes,
        batch_execution=batch,
        workers=workers,
        probe_cache_threshold=probe_cache_threshold,
    )
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    cluster.insert("B", [(i, i % 5, f"f{i}") for i in range(20)])
    cluster.create_join_view(
        two_way_view(
            "JV", "A", "c", "B", "d",
            partitioning=partitioning or HashPartitioning("e"),
        ),
        method=method,
        strategy=strategy,
    )
    return cluster


def _script(seed, steps=40, keys=7):
    rng = random.Random(seed)
    ops = []
    serial = 0
    live = {"A": [], "B": []}
    for _ in range(steps):
        kind = rng.choice(("ins", "ins", "ins", "del", "upd", "multi"))
        rel = rng.choice(("A", "B"))
        if kind == "ins":
            row = (1000 + serial, rng.randrange(keys), serial)
            serial += 1
            live[rel].append(row)
            ops.append(("insert", rel, [row]))
        elif kind == "multi":
            rows = []
            for _ in range(rng.randrange(2, 6)):
                rows.append((1000 + serial, rng.randrange(keys), serial))
                serial += 1
            live[rel].extend(rows)
            ops.append(("insert", rel, rows))
        elif kind == "del" and live[rel]:
            row = live[rel].pop(rng.randrange(len(live[rel])))
            ops.append(("delete", rel, [row]))
        elif kind == "upd" and live[rel]:
            old = live[rel].pop(rng.randrange(len(live[rel])))
            new = (1000 + serial, rng.randrange(keys), serial)
            serial += 1
            live[rel].append(new)
            ops.append(("update", rel, [(old, new)]))
    return ops


# -------------------------------------------------------------- equivalence


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_two_way_equivalence(method, strategy, workers):
    ops = _script(seed=hash((method, strategy)) % 10_000)
    parallel = _build(method, strategy, workers)
    serial = _build(method, strategy, None)
    try:
        run_ops(parallel, ops)
        run_ops(serial, ops)
        names = ["A", "B", "JV", *parallel.catalog.auxiliaries]
        assert_equivalent(parallel, serial, names)
    finally:
        parallel.close()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("method", ("naive", "auxiliary", "global_index"))
def test_reference_engine_equivalence(method, workers):
    """Directly against the tuple-at-a-time engine (batch_execution=False),
    not via transitivity through the serial batched suite."""
    ops = _script(seed=23, steps=30)
    parallel = _build(method, "auto", workers)
    reference = _build(method, "auto", None, batch=False)
    try:
        run_ops(parallel, ops)
        run_ops(reference, ops)
        names = ["A", "B", "JV", *parallel.catalog.auxiliaries]
        assert_equivalent(parallel, reference, names)
    finally:
        parallel.close()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("method", ("naive", "auxiliary", "global_index"))
def test_round_robin_view_equivalence(method, workers):
    """Round-robin views exercise the coordinator-simulated per-node delete
    search (the one view path where SEND order depends on storage state)."""
    ops = _script(seed=11, steps=30)
    parallel = _build(method, "inl", workers, partitioning=RoundRobinPartitioning())
    serial = _build(method, "inl", None, partitioning=RoundRobinPartitioning())
    try:
        run_ops(parallel, ops)
        run_ops(serial, ops)
        assert_equivalent(parallel, serial, ["A", "B", "JV"])
    finally:
        parallel.close()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("method", ("auxiliary", "global_index"))
def test_triangle_multiway_equivalence(method, workers):
    """Cyclic three-relation view on 3 nodes: multi-hop supersteps with
    extra-filter hops, and workers > nodes clamping when W = 3."""
    a = Schema.of("A", "x", "y", "pa")
    b = Schema.of("B", "y2", "z", "pb")
    c = Schema.of("C", "z2", "x2", "pc")
    definition = JoinViewDefinition(
        "TRI",
        ("A", "B", "C"),
        (
            JoinCondition("A", "y", "B", "y2"),
            JoinCondition("B", "z", "C", "z2"),
            JoinCondition("C", "x2", "A", "x"),
        ),
    )

    def build(workers):
        cluster = Cluster(num_nodes=3, batch_execution=True, workers=workers)
        cluster.create_relation(a, partitioned_on="pa")
        cluster.create_relation(b, partitioned_on="pb")
        cluster.create_relation(c, partitioned_on="pc")
        cluster.insert("B", [(i % 4, i % 3, i) for i in range(12)])
        cluster.insert("C", [(i % 3, i % 4, i) for i in range(12)])
        cluster.create_join_view(definition, method=method)
        return cluster

    rng = random.Random(5)
    ops = []
    for i in range(15):
        ops.append(("insert", "A", [(rng.randrange(4), rng.randrange(4), i)]))
    parallel, serial = build(workers), build(None)
    try:
        run_ops(parallel, ops)
        run_ops(serial, ops)
        names = ["A", "B", "C", "TRI", *parallel.catalog.auxiliaries]
        assert_equivalent(parallel, serial, names)
    finally:
        parallel.close()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("method", ("naive", "auxiliary", "global_index"))
def test_deferred_refresh_equivalence(method, workers):
    """A deferred refresh is a statement of its own: it must (re)enter the
    worker pool and flush with identical charges and RefreshReport."""

    def run(workers):
        cluster = _build(method, "auto", workers)
        wrapper = defer_view(cluster, "JV", flush_threshold=None)
        for i in range(25):
            cluster.insert("A", [(2000 + i, i % 5, i)])
        for i in range(0, 10, 2):
            cluster.delete("A", [(2000 + i, i % 5, i)])
        report = wrapper.refresh()
        return cluster, report

    parallel, report_p = run(workers)
    serial, report_s = run(None)
    try:
        assert (
            report_p.flushed_inserts,
            report_p.flushed_deletes,
            report_p.netted_away,
            report_p.statements_absorbed,
        ) == (
            report_s.flushed_inserts,
            report_s.flushed_deletes,
            report_s.netted_away,
            report_s.statements_absorbed,
        )
        assert_equivalent(parallel, serial, ["A", "B", "JV"])
    finally:
        parallel.close()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_mid_stream_ddl_equivalence(workers):
    """DDL drains the pool (workers would hold stale catalogs and
    fragments); the next statement re-forks from the current image and
    picks up the new access path exactly when the serial engine does."""

    def run(workers):
        cluster = Cluster(num_nodes=4, batch_execution=True, workers=workers)
        cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
        cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
        cluster.insert("B", [(i, i % 5, f"f{i}") for i in range(20)])
        cluster.create_join_view(
            two_way_view("JV", "A", "c", "B", "d",
                         partitioning=HashPartitioning("e")),
            method="hybrid",
        )
        cluster.insert("A", [(1, 1, 1), (2, 2, 2)])
        if cluster.catalog.find_auxiliary("B", "d") is None:
            cluster.create_auxiliary_relation("B", "d")
        cluster.insert("A", [(3, 1, 3), (4, 3, 4)])
        cluster.delete("A", [(1, 1, 1)])
        return cluster

    parallel, serial = run(workers), run(None)
    try:
        names = ["A", "B", "JV", *parallel.catalog.auxiliaries]
        assert_equivalent(parallel, serial, names)
    finally:
        parallel.close()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_large_skewed_transaction_equivalence(workers):
    """The headline benchmark shape: one big transaction with heavy key
    skew — maximal probe-cache and repeat-charge traffic."""
    rng = random.Random(9)
    rows = [(5000 + i, rng.choice((0, 0, 0, 1, 2)), i) for i in range(300)]
    for method in ("naive", "auxiliary", "global_index"):
        parallel = _build(method, "inl", workers)
        serial = _build(method, "inl", None)
        try:
            parallel.insert("A", rows)
            serial.insert("A", rows)
            names = ["A", "B", "JV", *parallel.catalog.auxiliaries]
            assert_equivalent(parallel, serial, names)
        finally:
            parallel.close()


# -------------------------------------------------------------- probe cache


def test_probe_cache_hits_charge_exactly_probe_cost():
    """Cross-statement repeats of a hot key are served from the worker's
    heavy-hitter cache; the hit path must charge exactly what re-executing
    the probe would, so the ledger stays byte-identical to serial."""
    parallel = _build("auxiliary", "inl", 1, probe_cache_threshold=2)
    serial = _build("auxiliary", "inl", None)
    try:
        for i in range(12):
            parallel.insert("A", [(3000 + i, 3, i)])  # same join key every time
            serial.insert("A", [(3000 + i, 3, i)])
        engine = parallel._parallel_engine
        assert engine is not None and engine.running
        stats = engine.probe_cache_stats()
        assert sum(worker.get("hits", 0) for worker in stats) > 0
        names = ["A", "B", "JV", *parallel.catalog.auxiliaries]
        assert_equivalent(parallel, serial, names)
    finally:
        parallel.close()


@pytest.mark.parametrize("method", ("naive", "auxiliary", "global_index"))
def test_probe_cache_invalidation_on_partner_write(method):
    """Interleave writes to the probed partner with hot-key statements: a
    cached probe result must be dropped when the partner changes, or the
    view silently misses join matches.  Checked against the serial engine
    (which has no cache and therefore cannot go stale)."""

    def run(workers):
        cluster = _build(method, "inl", workers, probe_cache_threshold=2)
        # Promote key 3 well past the threshold.
        for i in range(6):
            cluster.insert("A", [(6000 + i, 3, i)])
        # Write the probed partner: a new B row with the hot key...
        cluster.insert("B", [(97, 3, "fresh")])
        # ...and delete one existing match of the hot key.
        cluster.delete("B", [(3, 3, "f3")])
        # Statements after the partner writes must see the new truth.
        cluster.insert("A", [(6100, 3, 100), (6101, 3, 101)])
        return cluster

    parallel, serial = run(1), run(None)
    try:
        names = ["A", "B", "JV", *parallel.catalog.auxiliaries]
        assert_equivalent(parallel, serial, names)
        # The view really reflects the partner writes (not vacuous).
        jv_rows = [
            row for rows in fragment_contents(parallel, "JV").values()
            for row in rows
        ]
        assert any("fresh" in row for row in jv_rows)
        assert not any("f3" in row for row in jv_rows)
    finally:
        parallel.close()


# ----------------------------------------------------------- pool lifecycle


def test_close_is_idempotent_and_pool_restarts():
    cluster = _build("auxiliary", "inl", 2)
    cluster.insert("A", [(1, 1, 1)])
    engine = cluster._parallel_engine
    assert engine is not None and engine.running
    cluster.close()
    assert not engine.running
    cluster.close()  # idempotent
    # The next statement re-forks from the current image.
    cluster.insert("A", [(2, 2, 2)])
    assert cluster._parallel_engine.running
    cluster.close()


def test_workers_validation():
    with pytest.raises(ValueError):
        Cluster(num_nodes=2, workers=0)
    with pytest.raises(ValueError):
        Cluster(num_nodes=2, workers=-1)


# ------------------------------------------------------- shared-memory path


def test_shared_memory_transport_equivalence(monkeypatch):
    """Force every envelope blob through the shared-memory path (threshold
    1 byte) and pin the result against the serial engine — the transport
    encoding must be invisible to ledger, network, and fragment state."""
    from repro.cluster import parallel as parallel_mod

    segments = []
    real_create = parallel_mod._shm_create

    def counting_create(blob):
        segments.append(len(blob))
        return real_create(blob)

    monkeypatch.setattr(parallel_mod, "_shm_create", counting_create)
    ops = _script(seed=20260808)
    cluster = _build("auxiliary", "inl", 2)
    try:
        cluster.insert("A", [(1, 1, 1)])  # arm the pool
        engine = cluster._parallel_engine
        assert engine is not None and engine.running
        engine.shm_min_bytes = 1
        run_ops(cluster, ops)
    finally:
        cluster.close()
    assert segments, "shared-memory path never exercised"

    serial = _build("auxiliary", "inl", None)
    try:
        serial.insert("A", [(1, 1, 1)])
        run_ops(serial, ops)
        names = ["A", "B", "JV", *cluster.catalog.auxiliaries]
        assert_equivalent(cluster, serial, names)
    finally:
        serial.close()
