"""Tests for the naive maintenance method (paper §2.1.1)."""

from collections import Counter

import pytest

from repro import Op, recompute_view, two_way_view
from repro.cluster.partitioning import RoundRobinPartitioning
from tests.conftest import make_view


def view_equals_recompute(cluster):
    return Counter(cluster.view_rows("JV")) == recompute_view(cluster, "JV")


def test_insert_updates_view(ab_cluster):
    make_view(ab_cluster, "naive")
    ab_cluster.insert("A", [(1, 2, "x")])
    assert view_equals_recompute(ab_cluster)
    assert len(ab_cluster.view_rows("JV")) == 4  # key 2 has 4 matches


def test_insert_nonmatching_adds_nothing(ab_cluster):
    make_view(ab_cluster, "naive")
    ab_cluster.insert("A", [(1, 999, "x")])
    assert ab_cluster.view_rows("JV") == []


def test_delete_updates_view(ab_cluster):
    make_view(ab_cluster, "naive")
    ab_cluster.insert("A", [(1, 2, "x"), (2, 3, "y")])
    ab_cluster.delete("A", [(1, 2, "x")])
    assert view_equals_recompute(ab_cluster)


def test_update_changing_join_key(ab_cluster):
    make_view(ab_cluster, "naive")
    ab_cluster.insert("A", [(1, 2, "x")])
    ab_cluster.update("A", [((1, 2, "x"), (1, 3, "x"))])
    assert view_equals_recompute(ab_cluster)


def test_updates_to_other_side(ab_cluster):
    make_view(ab_cluster, "naive")
    ab_cluster.insert("A", [(1, 2, "x")])
    ab_cluster.insert("B", [(100, 2, "new")])
    assert view_equals_recompute(ab_cluster)
    ab_cluster.delete("B", [(100, 2, "new")])
    assert view_equals_recompute(ab_cluster)


def test_broadcast_probes_every_node(ab_cluster):
    make_view(ab_cluster, "naive", strategy="inl")
    ab_cluster.network.reset_stats()
    snapshot = ab_cluster.insert("A", [(1, 2, "x")])
    # The delta tuple is searched at all 4 nodes.
    assert snapshot.op_count(Op.SEARCH) == 4
    # Broadcast = L messages counted (self-delivery included per the paper).
    stats = ab_cluster.network.stats
    assert stats.messages + stats.local_deliveries >= 4


def test_nonclustered_probe_charges_fetch_per_match(ab_cluster):
    make_view(ab_cluster, "naive", strategy="inl")
    snapshot = ab_cluster.insert("A", [(1, 2, "x")])
    assert snapshot.op_count(Op.FETCH) == 4  # N = 4 matches


def test_clustered_index_probe_fetches_free(ab_cluster):
    ab_cluster.create_index("B", "d", clustered=True)
    make_view(ab_cluster, "naive", strategy="inl")
    snapshot = ab_cluster.insert("A", [(1, 2, "x")])
    assert snapshot.op_count(Op.FETCH) == 0
    assert snapshot.maintenance_workload() == 4.0  # L searches


def test_round_robin_view_distribution(ab_cluster):
    ab_cluster.create_join_view(
        two_way_view("JV", "A", "c", "B", "d",
                     partitioning=RoundRobinPartitioning()),
        method="naive",
    )
    ab_cluster.insert("A", [(1, 2, "x")])
    assert view_equals_recompute(ab_cluster)
    ab_cluster.delete("A", [(1, 2, "x")])
    assert view_equals_recompute(ab_cluster)
    assert ab_cluster.view_rows("JV") == []


def test_no_extra_structures_created(ab_cluster):
    make_view(ab_cluster, "naive")
    assert ab_cluster.catalog.auxiliaries == {}
    assert ab_cluster.catalog.global_indexes == {}


def test_sort_merge_strategy_same_contents(ab_cluster):
    make_view(ab_cluster, "naive", strategy="sort_merge")
    ab_cluster.insert("A", [(1, 2, "x"), (2, 3, "y")])
    assert view_equals_recompute(ab_cluster)


def test_sort_merge_charges_scans_not_searches(ab_cluster):
    ab_cluster.create_index("B", "d", clustered=True)
    make_view(ab_cluster, "naive", strategy="sort_merge")
    snapshot = ab_cluster.insert("A", [(1, 2, "x")])
    assert snapshot.op_count(Op.SEARCH) == 0
    assert snapshot.op_count(Op.SCAN_PAGE) > 0


def test_view_row_count_tracked(ab_cluster):
    make_view(ab_cluster, "naive")
    ab_cluster.insert("A", [(1, 2, "x")])
    assert ab_cluster.statistics.rows("JV") == 4
    ab_cluster.delete("A", [(1, 2, "x")])
    assert ab_cluster.statistics.rows("JV") == 0
