"""Transactions and replication on the batched engine — oracle first.

The invariant (Olteanu, "Recent Increments in IVM", PAPERS.md): every view
equals its query over the database after every update, and "rollback" is
an update.  So after every transaction the recompute-and-diff auditor must
pass; after every rollback the physical state must equal a deep copy taken
at ``__enter__``; and because the batched engine is a pure speed change,
its ledger, network counters and surviving rowids must equal the
tuple-at-a-time reference engine's (``Cluster(batch_execution=False)``) on
the same script.  The auditor checks the aggregate view against
``recompute_aggregate`` and its replica bags like any other view's.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Cluster,
    ConsistencyAuditor,
    HashPartitioning,
    Schema,
    two_way_view,
)
from repro.cluster.partitioning import RoundRobinPartitioning
from repro.cluster.transactions import Transaction
from repro.core.aggregates import (
    Aggregate,
    AggregateFunction,
    AggregateSpec,
    define_aggregate_join_view,
)
from repro.core.deferred import defer_view
from repro.costs import Tag
from repro.costs.ledger import format_cell_diff
from repro.obs import attach_observability

METHODS = ("naive", "auxiliary", "global_index")
SHAPES = ("one", "five_shared", "deferred", "aggregate", "round_robin")
#: Shapes where the batched engine builds the shared multi-view DAG, which
#: bills each distinct probe once (fewer MAINTAIN charges than the
#: reference engine's per-view loop, by design — DESIGN.md § 13).
SHARED_SHAPES = ("five_shared", "aggregate")

A_SCHEMA = Schema.of("A", "a", "c", "e", kinds=(int, int, int))
B_SCHEMA = Schema.of("B", "b", "d", "f", kinds=(int, int, int))

FIVE_SELECTS = (
    [("A", "e"), ("A", "c"), ("B", "f")],
    [("A", "e"), ("A", "a"), ("B", "b")],
    [("A", "e"), ("A", "c"), ("A", "a"), ("B", "b"), ("B", "d"), ("B", "f")],
    [("A", "e"), ("B", "d")],
    [("A", "e"), ("A", "a"), ("A", "c")],
)
AGG_SPEC = AggregateSpec(
    group_by=(("B", "d"),),
    aggregates=(
        Aggregate(AggregateFunction.COUNT, "n"),
        Aggregate(AggregateFunction.SUM, "total", source=("B", "f")),
    ),
)
#: Preloaded A rows, one of them stored twice (duplicate handling).
A_SEED = [(i, i % 5, i % 3) for i in range(8)] + [(3, 3, 0)]


class Boom(Exception):
    """The exception the "raise" ending lets escape the ``with`` block."""


def build(method, shape, k, batch_execution=True):
    cluster = Cluster(num_nodes=4, batch_execution=batch_execution)
    cluster.create_relation(A_SCHEMA, partitioned_on="a")
    cluster.create_relation(B_SCHEMA, partitioned_on="b")
    cluster.insert("B", [(i, i % 5, 100 + i) for i in range(20)])
    cluster.insert("A", A_SEED)

    def join_view(name, select=None, partitioning=HashPartitioning("e")):
        cluster.create_join_view(
            two_way_view(
                name, "A", "c", "B", "d", select=select, partitioning=partitioning
            ),
            method=method, strategy="inl",
        )

    if shape == "five_shared":
        for index, select in enumerate(FIVE_SELECTS):
            join_view(f"JV{index}", select=select)
    elif shape == "round_robin":
        join_view("JV", partitioning=RoundRobinPartitioning())
    else:
        join_view("JV")
    if shape == "deferred":
        defer_view(cluster, "JV", flush_threshold=6)
    if shape == "aggregate":
        define_aggregate_join_view(
            cluster, two_way_view("AGG", "A", "c", "B", "d"), AGG_SPEC,
            method=method,
        )
    if k:
        cluster.enable_replication(k=k)
    return cluster


# ------------------------------------------------------------ the scripts

_pick = st.integers(0, 10**6)
_statement = st.one_of(
    # (join key, partition value of the view, copy a stored row?, which)
    st.tuples(st.just("insert"), st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 3), st.booleans(), _pick),
        min_size=1, max_size=4,
    )),
    st.tuples(st.just("delete"), st.lists(_pick, min_size=1, max_size=3)),
    # (victim, new join key, new row equals a stored row?, which)
    st.tuples(st.just("update"), st.lists(
        st.tuples(_pick, st.integers(0, 5), st.booleans(), _pick),
        min_size=1, max_size=2,
    )),
)
ENDINGS = ("commit", "rollback", "raise", "nested")
_transaction = st.tuples(
    st.sampled_from(ENDINGS), st.lists(_statement, min_size=1, max_size=3)
)
_script = st.lists(_transaction, min_size=1, max_size=4)


def resolve(script):
    """Turn the drawn script into concrete statements against a model of
    A's live rows (committed transactions advance it, the rest do not), so
    every delete names stored rows and both engines run the same input."""
    live = list(A_SEED)
    serial = 1000
    resolved = []
    for ending, statements in script:
        working = list(live)
        concrete = []
        for kind, draws in statements:
            if kind == "insert":
                rows = []
                for key, part, copy, which in draws:
                    if copy and working:
                        rows.append(working[which % len(working)])
                    else:
                        rows.append((serial, key, part))
                        serial += 1
                working.extend(rows)
                concrete.append(("insert", rows))
            elif kind == "delete":
                victims = [
                    working.pop(which % len(working))
                    for which in draws if working
                ]
                if victims:
                    concrete.append(("delete", victims))
            else:
                olds = [
                    (working.pop(which % len(working)), key, equal, other)
                    for which, key, equal, other in draws if working
                ]
                pairs = []
                for old, key, equal, other in olds:
                    if equal and working:
                        new = working[other % len(working)]
                    else:
                        new = (old[0], key, old[2])
                    pairs.append((old, new))
                working.extend(new for _, new in pairs)
                if pairs:
                    concrete.append(("update", pairs))
        if not concrete:
            continue
        resolved.append((ending, concrete))
        if ending == "commit":
            live = working
    return resolved


def run_statements(txn, statements):
    for kind, payload in statements:
        getattr(txn, kind)("A", payload)


def run_transaction(cluster, ending, statements):
    if ending == "commit":
        with cluster.transaction() as txn:
            run_statements(txn, statements)
    elif ending == "rollback":
        with cluster.transaction() as txn:
            run_statements(txn, statements)
            txn.rollback()
    elif ending == "raise":
        with pytest.raises(Boom):
            with cluster.transaction() as txn:
                run_statements(txn, statements)
                raise Boom
    else:  # the inner scope commits into the outer one, which rolls back
        with cluster.transaction() as outer:
            with cluster.transaction() as inner:
                run_statements(inner, statements[:1])
            run_statements(outer, statements[1:])
            outer.rollback()
    assert cluster._undo_logs == []


# ------------------------------------------------------------- the oracles


def physical_state(cluster):
    """Everything a rollback must bring back, deep-copied."""
    catalog = cluster.catalog
    return {
        "fragments": {
            (node.node_id, name): dict(fragment.table.scan())
            for node in cluster.nodes
            for name, fragment in node._fragments.items()
        },
        # Rid-lists as bags: a restored entry re-enters at the tail of its
        # key's list in both engines (surviving order is compared below).
        "gi": {
            (node.node_id, name): Counter(partition.entries())
            for node in cluster.nodes
            for name, partition in node._gi_partitions.items()
        },
        "replicas": {
            (node.node_id, slot): dict(bag)
            for node in cluster.nodes
            for slot, bag in node._replicas.items()
        },
        "statistics": {
            name: cluster.statistics.for_relation(name)
            for name in catalog.relations
        },
    }


def assert_consistent(cluster):
    findings = ConsistencyAuditor(cluster).audit().findings
    assert not findings, [f.describe() for f in findings]


def assert_same_outcome(batched, reference, shape):
    """Surviving rowids, rid-list order, bags and counts equal; ledger and
    network bit-identical (MAINTAIN aside where the shared DAG runs)."""
    assert physical_state(batched) == physical_state(reference)
    for mine, theirs in zip(batched.nodes, reference.nodes):
        for name, partition in mine._gi_partitions.items():
            assert partition.entries() == theirs.gi_partition(name).entries()
    diff = batched.ledger.diff(reference.ledger)
    if shape in SHARED_SHAPES:
        assert all(cell[2] is Tag.MAINTAIN and delta < 0
                   for cell, delta in diff.items()), format_cell_diff(diff)
    else:
        assert not diff, format_cell_diff(diff)
        assert batched.network.stats == reference.network.stats


# ---------------------------------------------------------- the property


@pytest.mark.parametrize("k", (0, 2))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=_script)
def test_transactions_hold_the_invariant_on_the_batched_engine(
    method, shape, k, script
):
    batched = build(method, shape, k)
    reference = build(method, shape, k, batch_execution=False)
    for ending, statements in resolve(script):
        before = physical_state(batched) if ending != "commit" else None
        run_transaction(batched, ending, statements)
        run_transaction(reference, ending, statements)
        if before is not None:
            assert physical_state(batched) == before
        assert_consistent(batched)
        assert_consistent(reference)  # same deferred flushes on both
    assert_same_outcome(batched, reference, shape)


# ---------------------------------------------------- counted assertions


@pytest.mark.parametrize("k", (0, 2))
@pytest.mark.parametrize("method", METHODS)
def test_bulk_insert_records_one_inverse_per_batch(method, k):
    """A 64-row insert inside a transaction logs one entry per write batch
    (touched fragment, GI partition, replica batch) plus a few row-count
    restores — not 64 per structure."""
    cluster = build(method, "one", k)
    rows = [(2000 + i, i % 5, i % 3) for i in range(64)]
    before = physical_state(cluster)
    with cluster.transaction() as txn:
        txn.insert("A", rows)
        entries = len(txn._undo)
        after = physical_state(cluster)
        txn.rollback()
    touched_fragments = sum(
        after["fragments"][slot] != rows_before
        for slot, rows_before in before["fragments"].items()
    )
    touched_gi = sum(
        after["gi"][slot] != entries_before
        for slot, entries_before in before["gi"].items()
    )
    replica_batches = touched_fragments * (k - 1) if k else 0
    assert entries <= touched_fragments + touched_gi + replica_batches + 4
    assert entries < 64
    assert physical_state(cluster) == before


@pytest.mark.parametrize("method", METHODS)
def test_statement_span_says_batched_inside_a_replicated_transaction(method):
    cluster = build(method, "one", 2)
    obs = attach_observability(cluster)
    with cluster.transaction() as txn:
        txn.insert("A", [(3000, 1, 1)])
        txn.update("A", [((3000, 1, 1), (3000, 2, 1))])
    statements = [s for s in obs.tracer.roots if s.name == "statement"]
    assert [s.tags["engine"] for s in statements] == ["batched", "batched"]
    assert all(
        child.tags["path"] == "bulk"
        for s in statements for child in _descendants(s)
        if child.name == "view_write"
    )


def _descendants(span):
    for child in span.children:
        yield child
        yield from _descendants(child)


@pytest.mark.parametrize("k", (0, 2))
@pytest.mark.parametrize("method", METHODS)
def test_charged_rollback_bills_the_reference_engines_cells(
    method, k, monkeypatch
):
    """``charge_rollback`` replays ``writes=n`` batch entries: per (node,
    tag) the undone writes cost what the per-tuple engine's n entries do."""
    monkeypatch.setattr(Transaction, "_charge_rollback", lambda self: True)
    clusters = []
    for batch_execution in (True, False):
        cluster = build(method, "one", k, batch_execution=batch_execution)
        with cluster.transaction() as txn:
            txn.insert("A", [(4000 + i, i % 5, i % 3) for i in range(16)])
            txn.delete("A", A_SEED[:3])
            txn.update("A", [(A_SEED[4], (4, 0, 2))])
            undone = cluster.ledger.snapshot()
            txn.rollback()
        assert cluster.ledger.diff(undone), "the rollback charged nothing"
        clusters.append(cluster)
    batched, reference = clusters
    diff = batched.ledger.diff(reference.ledger)
    assert not diff, format_cell_diff(diff)


# ------------------------------------------------- scope identity (bugfix)


def test_nested_commit_then_outer_rollback_closes_the_right_scope():
    """``UndoLog`` used to compare by value: the committing inner scope
    removed the (equally empty) *outer* log, ``outer.rollback()`` then
    raised ``ValueError``, the rows stayed and a stale scope stayed on
    ``_undo_logs`` for the rest of the cluster's life."""
    cluster = build("auxiliary", "one", 2)
    before = physical_state(cluster)
    rows = [(5000 + i, i % 5, i % 3) for i in range(4)]
    with cluster.transaction() as outer:
        with cluster.transaction():
            pass
        outer.insert("A", rows)
        outer.rollback()
    assert cluster._undo_logs == []
    assert not set(rows) & set(cluster.scan_relation("A"))
    assert physical_state(cluster) == before
    assert ConsistencyAuditor(cluster).audit().ok
