"""Unit tests for repro.cluster.cluster (DDL, DML, co-updates, reads)."""

from collections import Counter

import pytest

from repro import Cluster, HashPartitioning, Schema, Tag, two_way_view
from repro.cluster.partitioning import stable_hash
from tests.conftest import make_view


def test_cluster_needs_a_node():
    with pytest.raises(ValueError):
        Cluster(0)


def test_create_relation_places_fragments_everywhere():
    cluster = Cluster(3)
    cluster.create_relation(Schema.of("R", "k"), partitioned_on="k")
    assert all(node.has_fragment("R") for node in cluster.nodes)


def test_create_relation_with_indexes():
    cluster = Cluster(2)
    cluster.create_relation(
        Schema.of("R", "k", "v"), partitioned_on="k",
        indexes=[("v", False), ("k", True)],
    )
    info = cluster.catalog.relation("R")
    assert info.indexes == {"v": False, "k": True}


def test_create_index_idempotent():
    cluster = Cluster(2)
    cluster.create_relation(Schema.of("R", "k"), partitioned_on="k")
    cluster.create_index("R", "k")
    cluster.create_index("R", "k")
    assert cluster.has_index("R", "k")


def test_create_index_unknown_column():
    cluster = Cluster(2)
    cluster.create_relation(Schema.of("R", "k"), partitioned_on="k")
    with pytest.raises(KeyError):
        cluster.create_index("R", "zzz")


def test_insert_places_rows_by_hash(ab_cluster):
    ab_cluster.insert("A", [(10, 1, "x")])
    home = stable_hash(10) % 4
    assert len(ab_cluster.nodes[home].fragment("A").table) == 1
    assert ab_cluster.statistics.rows("A") == 1


def test_partitioning_invariant_for_all_relations(ab_cluster):
    info = ab_cluster.catalog.relation("B")
    position = info.schema.index_of("b")
    for node in ab_cluster.nodes:
        for row in node.scan("B"):
            assert stable_hash(row[position]) % 4 == node.node_id


def test_delete_removes_one_instance(ab_cluster):
    ab_cluster.insert("A", [(1, 2, "x"), (1, 2, "x")])
    ab_cluster.delete("A", [(1, 2, "x")])
    assert ab_cluster.scan_relation("A") == [(1, 2, "x")]


def test_delete_missing_row_raises(ab_cluster):
    with pytest.raises(KeyError):
        ab_cluster.delete("A", [(9, 9, "nope")])


def test_update_is_delete_plus_insert(ab_cluster):
    ab_cluster.insert("A", [(1, 2, "x")])
    ab_cluster.update("A", [((1, 2, "x"), (1, 3, "y"))])
    assert ab_cluster.scan_relation("A") == [(1, 3, "y")]
    assert ab_cluster.statistics.rows("A") == 1


def test_auxiliary_relation_backfilled(ab_cluster):
    aux = ab_cluster.create_auxiliary_relation("B", "d")
    assert Counter(ab_cluster.scan_relation(aux.name)) == Counter(
        ab_cluster.scan_relation("B")
    )


def test_auxiliary_relation_partitioned_on_join_column(ab_cluster):
    aux = ab_cluster.create_auxiliary_relation("B", "d")
    position = aux.schema.index_of("d")
    for node in ab_cluster.nodes:
        for row in node.scan(aux.name):
            assert stable_hash(row[position]) % 4 == node.node_id


def test_auxiliary_relation_trimmed_projection(ab_cluster):
    aux = ab_cluster.create_auxiliary_relation("B", "d", columns=["f"])
    assert aux.schema.column_names == ("d", "f")
    rows = ab_cluster.scan_relation(aux.name)
    assert all(len(row) == 2 for row in rows)


def test_auxiliary_relation_with_predicate(ab_cluster):
    aux = ab_cluster.create_auxiliary_relation(
        "B", "d", predicate=lambda row: row[0] < 10
    )
    assert len(ab_cluster.scan_relation(aux.name)) == 10


def test_auxiliary_on_partition_column_rejected(ab_cluster):
    with pytest.raises(ValueError, match="already partitioned"):
        ab_cluster.create_auxiliary_relation("B", "b")


def test_auxiliary_co_update_on_insert_and_delete(ab_cluster):
    ab_cluster.create_auxiliary_relation("A", "c")
    ab_cluster.insert("A", [(1, 2, "x")])
    assert ab_cluster.scan_relation("AR_A_c") == [(1, 2, "x")]
    ab_cluster.delete("A", [(1, 2, "x")])
    assert ab_cluster.scan_relation("AR_A_c") == []


def test_auxiliary_co_update_charged_as_maintenance(ab_cluster):
    ab_cluster.create_auxiliary_relation("A", "c")
    snapshot = ab_cluster.insert("A", [(1, 2, "x")])
    # One redistribution send (free) plus one AR insert (2 I/Os).
    assert snapshot.maintenance_workload() == 2.0


def test_global_index_backfilled(ab_cluster):
    gi = ab_cluster.create_global_index("B", "d")
    total = sum(len(node.gi_partition(gi.name)) for node in ab_cluster.nodes)
    assert total == 20


def test_global_index_co_update(ab_cluster):
    gi = ab_cluster.create_global_index("A", "c")
    ab_cluster.insert("A", [(1, 2, "x")])
    home = gi.home_node(2)
    assert ab_cluster.nodes[home].gi_partition(gi.name).search(2) != []
    ab_cluster.delete("A", [(1, 2, "x")])
    assert ab_cluster.nodes[home].gi_partition(gi.name).search(2) == []


def test_global_index_on_partition_column_rejected(ab_cluster):
    with pytest.raises(ValueError, match="already partitioned"):
        ab_cluster.create_global_index("B", "b")


def test_distributed_clustered_gi_requires_clustered_base(ab_cluster):
    with pytest.raises(ValueError, match="clustered"):
        ab_cluster.create_global_index("B", "d", distributed_clustered=True)
    ab_cluster.create_index("B", "d", clustered=True)
    gi = ab_cluster.create_global_index("B", "d", distributed_clustered=True)
    assert gi.distributed_clustered


def test_storage_tuples_accounts_everything(ab_cluster):
    ab_cluster.create_auxiliary_relation("B", "d")
    ab_cluster.create_global_index("A", "c")
    usage = ab_cluster.storage_tuples()
    assert usage["B"] == 20
    assert usage["AR_B_d"] == 20
    assert usage["GI_A_c"] == 0  # A is empty


def test_fragment_sizes_and_pages(ab_cluster):
    sizes = ab_cluster.fragment_sizes("B")
    assert sum(sizes.values()) == 20
    assert ab_cluster.relation_pages("B") >= 1


def test_view_rows_requires_view(ab_cluster):
    with pytest.raises(KeyError):
        ab_cluster.view_rows("nope")


def test_duplicate_catalog_names_rejected(ab_cluster):
    with pytest.raises(ValueError):
        ab_cluster.create_relation(Schema.of("A", "x"), partitioned_on="x")


def test_base_writes_tagged_base(ab_cluster):
    snapshot = ab_cluster.insert("A", [(1, 2, "x")])
    assert snapshot.total_workload([Tag.BASE]) == 2.0
    assert snapshot.maintenance_workload() == 0.0  # no views, no structures
