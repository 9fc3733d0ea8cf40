"""Cardinality oracle: ``cluster.statistics.rows`` is the only cardinality.

It and the ``repro_catalog_rows`` gauge must equal a fragment recount after
autocommit writes, a rolled-back transaction on either engine, a deferred
flush, and membership changes under k=2 replication.
"""

import pytest

from repro import Cluster, HashPartitioning, Schema, two_way_view
from repro.cluster.partitioning import RoundRobinPartitioning
from repro.core import Aggregate, AggregateFunction, AggregateSpec
from repro.core import defer_view, define_aggregate_join_view
from repro.faults import ConsistencyAuditor, FaultPlan, attach_faults
from repro.obs.collect import collect_cluster_metrics
from tests.conftest import fragment_contents

SPEC = AggregateSpec((("B", "d"),), (Aggregate(AggregateFunction.COUNT, "n"),))
PARTITIONINGS = {"hash": HashPartitioning("e"), "round_robin": RoundRobinPartitioning()}


def build(kind, method):
    cluster = Cluster(num_nodes=4)
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    cluster.insert("B", [(i, i % 5, f"f{i}") for i in range(20)])
    cluster.insert("A", [(i, i % 5, f"e{i}") for i in range(10)])
    if kind == "aggregate":
        view = two_way_view("V", "A", "c", "B", "d")
        define_aggregate_join_view(cluster, view, SPEC, method=method)
    else:
        view = two_way_view("V", "A", "c", "B", "d", partitioning=PARTITIONINGS[kind])
        cluster.create_join_view(view, method=method)
    return cluster


def counts(cluster):
    return {name: cluster.statistics.rows(name) for name in ("A", "B", "V")}


def assert_counts_exact(cluster):
    gauge = collect_cluster_metrics(cluster).get("repro_catalog_rows")
    for name, kind in (("A", "relation"), ("B", "relation"), ("V", "view")):
        recount = sum(map(len, fragment_contents(cluster, name).values()))
        assert cluster.statistics.rows(name) == recount, name
        assert gauge.get(kind=kind, name=name) == recount, name
    report = ConsistencyAuditor(cluster).audit()
    assert report.ok, report.summary()


def roll_back(cluster):
    """Grow and shrink every object (join key 9 is new: a view row and an
    aggregate group appear), then roll back: every count comes back."""
    before = counts(cluster)
    with cluster.transaction() as txn:
        txn.insert("B", [(90, 9, "new")])
        txn.insert("A", [(91, 9, "new"), (92, 1, "new")])
        txn.delete("B", [(1, 1, "f1")])
        assert counts(cluster) != before
        txn.rollback()
    assert counts(cluster) == before
    assert_counts_exact(cluster)


@pytest.mark.parametrize("method", ("naive", "auxiliary", "global_index"))
@pytest.mark.parametrize("kind", ("hash", "round_robin", "aggregate"))
def test_statistics_rows_equal_recount_after_every_change(kind, method):
    cluster = build(kind, method)
    assert_counts_exact(cluster)
    cluster.insert("A", [(100 + i, i % 5, "ins") for i in range(6)])
    cluster.delete("A", [(0, 0, "e0"), (100, 0, "ins")])
    assert_counts_exact(cluster)
    roll_back(cluster)  # the batched engine's undo log

    wrapper = defer_view(cluster, "V")
    cluster.insert("A", [(200 + i, i % 5, "queued") for i in range(4)])
    cluster.delete("A", [(1, 1, "e1"), (200, 0, "queued")])
    wrapper.refresh()
    assert_counts_exact(cluster)

    cluster.enable_replication(k=2)
    if kind != "aggregate":  # aggregate views refuse add_node
        cluster.add_node()
        assert_counts_exact(cluster)
    attach_faults(cluster, plan=FaultPlan())
    cluster.faults.injector.crash(2)
    cluster.insert("A", [(300 + i, i % 5, "parked") for i in range(8)])
    cluster.fail_over(2)
    assert_counts_exact(cluster)
    roll_back(cluster)  # the per-tuple engine's undo log
