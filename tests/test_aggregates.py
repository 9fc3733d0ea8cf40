"""Tests for aggregate join views (COUNT/SUM/AVG over the join)."""

from collections import Counter

import pytest

from repro import Cluster, ConsistencyAuditor, FaultPlan, Schema, attach_faults
from repro.core import (
    Aggregate,
    AggregateFunction,
    AggregateSpec,
    aggregate_rows,
    defer_view,
    define_aggregate_join_view,
    recompute_aggregate,
)
from repro.faults import RecoveryPolicy
from repro.core.view import ViewDefinitionError, two_way_view


def agg_counter(rows):
    return Counter(
        tuple(round(v, 9) if isinstance(v, float) else v for v in row)
        for row in rows
    )


def check(cluster, name):
    assert agg_counter(aggregate_rows(cluster, name)) == agg_counter(
        recompute_aggregate(cluster, name)
    )


SPEC = AggregateSpec(
    group_by=(("B", "d"),),
    aggregates=(
        Aggregate(AggregateFunction.COUNT, "n"),
        Aggregate(AggregateFunction.SUM, "total", source=("B", "f")),
        Aggregate(AggregateFunction.AVG, "avg_f", source=("B", "f")),
    ),
)


def fresh(method="auxiliary"):
    cluster = Cluster(4)
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    cluster.insert("B", [(i, i % 3, float(i)) for i in range(12)])
    define_aggregate_join_view(
        cluster, two_way_view("AGG", "A", "c", "B", "d"), SPEC, method=method
    )
    return cluster


def test_spec_validation():
    with pytest.raises(ViewDefinitionError, match="GROUP BY"):
        AggregateSpec(group_by=(), aggregates=(Aggregate(AggregateFunction.COUNT, "n"),))
    with pytest.raises(ViewDefinitionError, match="at least one"):
        AggregateSpec(group_by=(("B", "d"),), aggregates=())
    with pytest.raises(ViewDefinitionError, match="duplicate"):
        AggregateSpec(
            group_by=(("B", "d"),),
            aggregates=(
                Aggregate(AggregateFunction.COUNT, "n"),
                Aggregate(AggregateFunction.SUM, "n", source=("B", "f")),
            ),
        )
    with pytest.raises(ViewDefinitionError, match="COUNT"):
        Aggregate(AggregateFunction.COUNT, "n", source=("B", "f"))
    with pytest.raises(ViewDefinitionError, match="input column"):
        Aggregate(AggregateFunction.SUM, "s")


def test_initial_materialization_empty_a():
    cluster = fresh()
    assert aggregate_rows(cluster, "AGG") == []


def test_initial_materialization_with_data():
    cluster = Cluster(3)
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    cluster.insert("B", [(i, i % 2, float(i)) for i in range(4)])
    cluster.insert("A", [(1, 0, "x"), (2, 1, "y")])
    define_aggregate_join_view(
        cluster, two_way_view("AGG", "A", "c", "B", "d"), SPEC
    )
    check(cluster, "AGG")
    assert len(aggregate_rows(cluster, "AGG")) == 2  # two groups


@pytest.mark.parametrize("method", ["naive", "auxiliary", "global_index", "hybrid"])
def test_insert_maintains_aggregates(method):
    cluster = fresh(method)
    cluster.insert("A", [(1, 0, "x"), (2, 1, "y"), (3, 0, "z")])
    check(cluster, "AGG")
    rows = {row[0]: row for row in aggregate_rows(cluster, "AGG")}
    # Group d=0: 2 A-tuples x 4 matching B rows (0,3,6,9) = 8 join tuples.
    assert rows[0][1] == 8
    assert rows[0][2] == pytest.approx(2 * (0 + 3 + 6 + 9))
    assert rows[0][3] == pytest.approx((0 + 3 + 6 + 9) / 4)


def test_delete_updates_and_removes_empty_groups():
    cluster = fresh()
    cluster.insert("A", [(1, 0, "x"), (2, 1, "y")])
    cluster.delete("A", [(2, 1, "y")])
    check(cluster, "AGG")
    groups = {row[0] for row in aggregate_rows(cluster, "AGG")}
    assert groups == {0}  # group 1 emptied and vanished
    cluster.delete("A", [(1, 0, "x")])
    assert aggregate_rows(cluster, "AGG") == []


def test_b_side_updates_fold_in():
    cluster = fresh()
    cluster.insert("A", [(1, 0, "x")])
    cluster.insert("B", [(100, 0, 50.0)])
    check(cluster, "AGG")
    cluster.delete("B", [(100, 0, 50.0)])
    check(cluster, "AGG")


def test_update_changing_group():
    cluster = fresh()
    cluster.insert("A", [(1, 0, "x")])
    cluster.update("A", [((1, 0, "x"), (1, 2, "x"))])
    check(cluster, "AGG")
    groups = {row[0] for row in aggregate_rows(cluster, "AGG")}
    assert groups == {2}


def test_groups_partitioned_by_key():
    cluster = fresh()
    cluster.insert("A", [(i, i % 3, "x") for i in range(9)])
    info = cluster.catalog.view("AGG")
    for node in cluster.nodes:
        for row in node.scan("AGG"):
            assert info.partitioner.node_of_row(row) == node.node_id


def test_aggregate_updates_charged_to_view_tag():
    from repro import Tag

    cluster = fresh()
    snapshot = cluster.insert("A", [(1, 0, "x")])
    assert snapshot.total_workload([Tag.VIEW]) > 0
    # One group touched: exactly one group-row write.
    from repro import Op

    assert snapshot.op_count(Op.INSERT, tags=[Tag.VIEW]) == 1


def test_multi_column_group_by():
    spec = AggregateSpec(
        group_by=(("B", "d"), ("A", "e")),
        aggregates=(Aggregate(AggregateFunction.COUNT, "n"),),
    )
    cluster = Cluster(3)
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    cluster.insert("B", [(i, i % 2, float(i)) for i in range(6)])
    define_aggregate_join_view(
        cluster, two_way_view("AGG2", "A", "c", "B", "d"), spec
    )
    cluster.insert("A", [(1, 0, "x"), (2, 0, "x"), (3, 0, "y")])
    check(cluster, "AGG2")
    rows = {(row[0], row[1]): row[2] for row in aggregate_rows(cluster, "AGG2")}
    assert rows[(0, "x")] == 6  # 2 A tuples x 3 matches
    assert rows[(0, "y")] == 3


def test_aggregate_rows_rejects_plain_views(ab_cluster):
    from tests.conftest import make_view

    make_view(ab_cluster, "naive")
    with pytest.raises(ViewDefinitionError, match="not an aggregate"):
        aggregate_rows(ab_cluster, "JV")


def test_property_random_stream_stays_consistent():
    import random

    rng = random.Random(17)
    cluster = fresh()
    live = []
    for step in range(60):
        if not live or rng.random() < 0.6:
            row = (step, rng.randrange(3), f"e{step}")
            live.append(row)
            cluster.insert("A", [row])
        else:
            row = live.pop(rng.randrange(len(live)))
            cluster.delete("A", [row])
        if step % 10 == 0:
            check(cluster, "AGG")
    check(cluster, "AGG")


# ---------------------------------------------------- rollback (REP009 bug)


def test_rollback_restores_aggregate_view():
    """Regression: aggregate folding used to mutate view fragments without
    recording undo actions, so a transaction rollback restored the base
    relations but left the folded counts/sums corrupted (the invariant
    REP009 checks)."""
    cluster = fresh()
    cluster.insert("A", [(0, 0, "seed"), (1, 1, "seed")])
    before = agg_counter(aggregate_rows(cluster, "AGG"))
    txn = cluster.transaction()
    with txn:
        txn.insert("A", [(2, 0, "x"), (3, 2, "y")])
        txn.delete("A", [(0, 0, "seed")])
        txn.rollback()
    assert agg_counter(aggregate_rows(cluster, "AGG")) == before
    check(cluster, "AGG")


def test_rollback_restores_aggregate_row_count():
    cluster = fresh()
    cluster.insert("A", [(0, 0, "seed")])
    count_before = cluster.statistics.rows("AGG")
    txn = cluster.transaction()
    with txn:
        # New group rows appear (group 2 unseen) and existing rows rewrite.
        txn.insert("A", [(2, 2, "x")])
        txn.delete("A", [(0, 0, "seed")])
        txn.rollback()
    assert cluster.statistics.rows("AGG") == count_before
    check(cluster, "AGG")


# ------------------------------------------------- audit and replication


def test_auditor_checks_aggregate_views_against_recompute():
    """Regression: the auditor compared stored group rows against the raw
    join rows, so every aggregate view was reported divergent."""
    cluster = fresh()
    cluster.insert("A", [(i, i % 3, "x") for i in range(9)])
    cluster.delete("A", [(0, 0, "x"), (4, 1, "x")])
    auditor = ConsistencyAuditor(cluster)
    assert auditor.audit_view("AGG") == []
    assert auditor.audit().ok
    # A hand-corrupted COUNT is still caught.
    node = next(n for n in cluster.nodes if len(n.fragment("AGG").table))
    fragment = node.fragment("AGG")
    rowid, row = next(iter(fragment.table.scan()))
    fragment.delete(rowid)
    fragment.insert(row[:1] + (row[1] + 1,) + row[2:])
    assert [f.name for f in auditor.audit_view("AGG")] == ["AGG"]
    assert not auditor.audit().ok


@pytest.mark.parametrize("method", ["naive", "auxiliary", "global_index"])
def test_aggregate_rewrites_keep_replicas_current_through_fail_over(method):
    """Regression: aggregate rewrites skipped the replica write hook, so
    the view's replica bags went stale under ``enable_replication``."""
    cluster = fresh(method)
    cluster.enable_replication(k=2)
    cluster.insert("A", [(i, i % 3, "x") for i in range(12)])
    cluster.delete("A", [(0, 0, "x"), (4, 1, "x")])
    with cluster.transaction() as txn:
        txn.insert("A", [(20, 2, "y"), (21, 0, "y")])
        txn.delete("A", [(1, 1, "x")])
        txn.rollback()
    auditor = ConsistencyAuditor(cluster)
    assert auditor.audit_replicas() == []
    assert auditor.audit().ok
    # Growing the cluster still refuses aggregate views; shrinking does not.
    with pytest.raises(NotImplementedError, match="add_node"):
        cluster.add_node()
    attach_faults(cluster, plan=FaultPlan(), seed=3)
    cluster.faults.injector.crash(1)
    report = cluster.fail_over(1)
    assert report.restored.get("AGG")
    check(cluster, "AGG")
    assert ConsistencyAuditor(cluster).audit().ok


@pytest.mark.parametrize("deferred", [False, True], ids=["eager", "deferred"])
def test_repair_and_recover_rebuild_aggregate_views(deferred):
    """Regression: ``repair()`` rebuilt every view as join rows, so an
    aggregate view raised ``SchemaError`` half-way and was left empty —
    also through ``recover()`` whenever a rebuild was pending."""
    cluster = fresh()
    if deferred:
        defer_view(cluster, "AGG")
    cluster.insert("A", [(i, i % 3, "x") for i in range(9)])
    auditor = ConsistencyAuditor(cluster)
    assert auditor.audit().ok
    groups = agg_counter(aggregate_rows(cluster, "AGG"))
    assert len(groups) == 3
    auditor.repair()
    assert auditor.audit().ok
    assert agg_counter(aggregate_rows(cluster, "AGG")) == groups

    # Node 2 holds A's auxiliary copies of c == 2: with it down, those
    # statements apply their base writes only and leave a rebuild pending.
    controller = attach_faults(
        cluster,
        plan=FaultPlan().crash(node=2, after_messages=0),
        seed=0,
        policy=RecoveryPolicy(degrade_when_down=True),
    )
    a = cluster.catalog.relation("A").partitioner
    for row in [(i, i % 3, "y") for i in range(20, 32)]:
        if a.node_of_row(row) != 2:
            cluster.insert("A", [row])
    assert controller.needs_rebuild
    assert controller.recover().rebuilt is not None
    assert ConsistencyAuditor(cluster).audit().ok
    check(cluster, "AGG")
    assert len(agg_counter(aggregate_rows(cluster, "AGG"))) == 3
