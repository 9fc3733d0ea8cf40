"""Edge-path tests across modules: branches the main suites don't reach."""

from collections import Counter

import pytest

from repro import (
    Cluster,
    HashPartitioning,
    Op,
    Schema,
    Tag,
    recompute_view,
    two_way_view,
)
from repro.backends.sqlite_cluster import ParallelResult, SQLiteCluster
from repro.core.delta import Delta, PlacedRow
from repro.core.view import JoinCondition, JoinViewDefinition


# ------------------------------------------------------------------ delta


def test_delta_helpers():
    delta = Delta(relation="A")
    assert delta.is_empty and delta.size() == 0
    delta.inserts.append(PlacedRow(0, 0, (1,)))
    delta.deletes.append(PlacedRow(1, 3, (2,)))
    assert not delta.is_empty
    assert delta.size() == 2
    assert delta.inserted_rows() == [(1,)]
    assert delta.deleted_rows() == [(2,)]


def test_empty_delta_is_noop(ab_cluster):
    from tests.conftest import make_view

    view = make_view(ab_cluster, "auxiliary")
    before = ab_cluster.ledger.snapshot()
    view.maintainer.apply(Delta(relation="A"))
    assert ab_cluster.ledger.diff_since(before).total_workload() == 0.0


# ------------------------------------------------------------- view cases


def test_view_partitioned_on_b_attribute(ab_cluster):
    """The symmetric case the paper notes: JV partitioned on an attribute
    of B still routes each result tuple to exactly one node."""
    ab_cluster.create_join_view(
        two_way_view("JV", "A", "c", "B", "d",
                     partitioning=HashPartitioning("f")),
        method="auxiliary",
    )
    ab_cluster.insert("A", [(1, 2, "x")])
    assert Counter(ab_cluster.view_rows("JV")) == recompute_view(ab_cluster, "JV")
    info = ab_cluster.catalog.view("JV")
    position = info.schema.index_of("f")
    for node in ab_cluster.nodes:
        for row in node.scan("JV"):
            assert info.partitioner.node_of_key(row[position]) == node.node_id


def test_both_bases_partitioned_on_join_attributes():
    """Case 1 of §2.1.1: no broadcast is ever needed, any method degrades
    gracefully to co-located probes."""
    cluster = Cluster(4)
    cluster.create_relation(
        Schema.of("A", "a", "c"), partitioned_on="c", indexes=[("c", False)]
    )
    cluster.create_relation(
        Schema.of("B", "b", "d"), partitioned_on="d", indexes=[("d", False)]
    )
    cluster.insert("B", [(i, i % 4) for i in range(8)])
    for method in ("naive", "auxiliary", "global_index"):
        name = f"JV_{method}"
        cluster.create_join_view(
            two_way_view(name, "A", "c", "B", "d", select=[("A", "a"), ("B", "b")]),
            method=method,
            strategy="inl",
        )
    assert cluster.catalog.auxiliaries == {}
    assert cluster.catalog.global_indexes == {}
    snapshot = cluster.insert("A", [(1, 2)])
    # All three views degrade to the identical co-located probe plan, so
    # the shared multi-view path groups them and bills the single probe
    # once for the whole group (DESIGN.md § 13); no broadcast either way.
    assert snapshot.op_count(Op.SEARCH, tags=[Tag.MAINTAIN]) == 1
    assert cluster.multi_view_stats.last_partition_passes == 1
    for method in ("naive", "auxiliary", "global_index"):
        name = f"JV_{method}"
        assert Counter(cluster.view_rows(name)) == recompute_view(cluster, name)


def test_gi_hop_with_extra_filter():
    """Cyclic closing hop through a global index applies the filter on the
    fetched rows."""
    a = Schema.of("A", "x", "y", "pa")
    b = Schema.of("B", "y2", "z", "pb")
    c = Schema.of("C", "z2", "x2", "pc")
    definition = JoinViewDefinition(
        name="TRI",
        relations=("A", "B", "C"),
        conditions=(
            JoinCondition("A", "y", "B", "y2"),
            JoinCondition("B", "z", "C", "z2"),
            JoinCondition("C", "x2", "A", "x"),
        ),
        select=(("A", "x"), ("C", "x2")),
    )
    cluster = Cluster(3)
    cluster.create_relation(a, partitioned_on="pa")
    cluster.create_relation(b, partitioned_on="pb")
    cluster.create_relation(c, partitioned_on="pc")
    cluster.insert("B", [(10, 99, 0)])
    cluster.insert("C", [(99, 1, 0), (99, 2, 1)])
    cluster.create_join_view(definition, method="global_index", strategy="inl")
    cluster.insert("A", [(1, 10, 0)])
    assert cluster.view_rows("TRI") == [(1, 1)]  # (99, 2) filtered out


# -------------------------------------------------------------- sqlite


def test_parallel_result_empty():
    result = ParallelResult([], [])
    assert result.response_seconds == 0.0
    assert result.total_seconds == 0.0
    assert result.rows == []


def test_sqlite_column_affinities():
    with SQLiteCluster(1) as cluster:
        schema = Schema.of("T", "i", "f", "s", "o",
                           kinds=(int, float, str, bytes))
        cluster.create_table(schema, partitioned_on="i")
        ddl = cluster.nodes[0].query(
            "SELECT sql FROM sqlite_master WHERE name = 'T'"
        )[0][0]
        assert "i INTEGER" in ddl and "f REAL" in ddl
        assert "s TEXT" in ddl and "o BLOB" in ddl


def test_sqlite_cluster_needs_a_node():
    with pytest.raises(ValueError):
        SQLiteCluster(0)


def test_sqlite_cluster_on_disk(tmp_path):
    with SQLiteCluster(2, directory=tmp_path) as cluster:
        cluster.create_table(Schema.of("T", "k", kinds=(int,)), partitioned_on="k")
        cluster.load("T", [(1,), (2,)])
        assert cluster.count("T") == 2
    assert (tmp_path / "node0.db").exists()
    assert (tmp_path / "node1.db").exists()


# --------------------------------------------------------------- queries


def test_query_engine_scan_without_partition_pin(ab_cluster):
    from repro.query import Comparison, Filter, Query, QueryEngine

    ab_cluster.insert("A", [(i, i % 5, i) for i in range(10)])
    engine = QueryEngine(ab_cluster)
    result = engine.answer(
        Query(
            relations=("A",),
            select=(("A", "a"),),
            filters=(Filter("A", "e", Comparison.GE, 7),),
        )
    )
    assert sorted(result.rows) == [(7,), (8,), (9,)]
    assert result.plan == "base join"


def test_view_row_helpers(ab_cluster):
    from tests.conftest import make_view

    view = make_view(ab_cluster, "naive")
    assert ab_cluster.view_rows("JV") == []
    ab_cluster.insert("A", [(1, 2, "x")])
    assert ab_cluster.statistics.rows(view.name) == len(ab_cluster.view_rows("JV")) == 4
