"""Tests for repro.cluster.transactions."""

import pytest

from repro import ConsistencyAuditor, Schema, two_way_view
from repro.core import (
    Aggregate,
    AggregateFunction,
    AggregateSpec,
    define_aggregate_join_view,
)
from tests.conftest import make_view


def test_transaction_scopes_cost(ab_cluster):
    make_view(ab_cluster, "auxiliary", strategy="inl")
    with ab_cluster.transaction() as txn:
        txn.insert("A", [(1, 2, "x"), (2, 3, "y")])
    report = txn.report
    assert report is not None
    assert report.statements == 1
    assert report.maintenance_workload == 6.0  # 3 I/Os per tuple
    assert report.maintenance_response_time <= report.maintenance_workload
    assert report.total_workload > report.maintenance_workload  # base+view


def test_transaction_multiple_statements(ab_cluster):
    make_view(ab_cluster, "auxiliary")
    with ab_cluster.transaction() as txn:
        txn.insert("A", [(1, 2, "x")])
        txn.update("A", [((1, 2, "x"), (1, 3, "x"))])
        txn.delete("A", [(1, 3, "x")])
    assert txn.report.statements == 3
    assert ab_cluster.scan_relation("A") == []


def test_transaction_excludes_outside_work(ab_cluster):
    make_view(ab_cluster, "auxiliary", strategy="inl")
    ab_cluster.insert("A", [(9, 4, "pre")])  # outside the transaction
    with ab_cluster.transaction() as txn:
        txn.insert("A", [(1, 2, "x")])
    assert txn.report.maintenance_workload == 3.0


def test_transaction_reenter_rejected(ab_cluster):
    txn = ab_cluster.transaction()
    with txn:
        with pytest.raises(RuntimeError):
            txn.__enter__()


def test_transaction_use_outside_context_rejected(ab_cluster):
    txn = ab_cluster.transaction()
    with pytest.raises(RuntimeError):
        txn.insert("A", [(1, 2, "x")])
    with txn:
        pass
    with pytest.raises(RuntimeError):
        txn.insert("A", [(1, 2, "x")])


def test_empty_transaction(ab_cluster):
    with ab_cluster.transaction() as txn:
        pass
    assert txn.report.statements == 0
    assert txn.report.total_workload == 0.0


# ------------------------------------------------ DDL inside a transaction


def test_create_join_view_inside_transaction_is_refused(ab_cluster):
    """DDL is not transactional: a view built inside an open scope would
    survive the rollback of the rows it was built from."""
    with pytest.raises(RuntimeError, match="create_join_view cannot run"):
        with ab_cluster.transaction() as txn:
            txn.insert("A", [(i, i % 5, f"e{i}") for i in range(4)])
            make_view(ab_cluster, "auxiliary")
    assert "JV" not in ab_cluster.catalog.views
    assert ab_cluster.scan_relation("A") == []
    assert ConsistencyAuditor(ab_cluster).audit().ok


def test_drop_view_inside_transaction_is_refused(ab_cluster):
    make_view(ab_cluster, "auxiliary")
    with pytest.raises(RuntimeError, match="drop_view cannot run"):
        with ab_cluster.transaction() as txn:
            txn.insert("A", [(i, i % 5, f"e{i}") for i in range(4)])
            ab_cluster.drop_view("JV")
    assert "JV" in ab_cluster.catalog.views
    assert ab_cluster.scan_relation("A") == []
    assert ab_cluster.view_rows("JV") == []
    assert ConsistencyAuditor(ab_cluster).audit().ok


_SPEC = AggregateSpec(
    group_by=(("B", "d"),),
    aggregates=(Aggregate(AggregateFunction.COUNT, "n"),),
)

_DDL = {
    "create_relation": lambda c: c.create_relation(
        Schema.of("C", "g", "h"), partitioned_on="g"
    ),
    "create_index": lambda c: c.create_index("A", "e"),
    "create_auxiliary_relation": lambda c: c.create_auxiliary_relation("A", "c"),
    "create_global_index": lambda c: c.create_global_index("A", "c"),
    "create_view_from_sql": lambda c: c.create_view_from_sql(
        "create view JV as select * from A, B where A.c = B.d;"
    ),
    "drop_auxiliary_relation": lambda c: c.drop_auxiliary_relation("AR_B_d"),
    "drop_global_index": lambda c: c.drop_global_index("GI_B_d"),
    "define_aggregate_join_view": lambda c: define_aggregate_join_view(
        c, two_way_view("AGG", "A", "c", "B", "d"), _SPEC
    ),
}


@pytest.mark.parametrize("operation", sorted(_DDL))
def test_every_ddl_entry_point_refuses_an_open_scope(ab_cluster, operation):
    ab_cluster.create_auxiliary_relation("B", "d")
    ab_cluster.create_global_index("B", "d")
    with ab_cluster.transaction():
        with pytest.raises(RuntimeError, match=f"{operation} cannot run"):
            _DDL[operation](ab_cluster)
    # Outside the scope the same statement runs.
    _DDL[operation](ab_cluster)
