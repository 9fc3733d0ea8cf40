"""Tests for the workload-level materialization advisor."""

import pytest

from repro import Cluster, MaintenanceMethod, Schema, two_way_view
from repro.core import BoundView, WorkloadAdvisor, WorkloadProfile


def build_advisor(b_rows=5_000, num_nodes=8, clustered=False):
    cluster = Cluster(num_nodes)
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    info = cluster.catalog.relation("B")
    for i in range(b_rows):
        row = (i, i % 500, f"f{i}")
        cluster.nodes[info.partitioner.node_of_row(row)].fragment("B").insert(row)
    bound = BoundView(
        two_way_view("JV", "A", "c", "B", "d"),
        {
            "A": cluster.catalog.relation("A").schema,
            "B": cluster.catalog.relation("B").schema,
        },
    )
    return WorkloadAdvisor(cluster, bound, clustered_base_indexes=clustered)


def test_profile_validation():
    with pytest.raises(ValueError):
        WorkloadProfile(full_queries=-1)
    with pytest.raises(ValueError):
        WorkloadProfile(tuples_per_update=0)


def test_query_heavy_workload_materializes():
    advisor = build_advisor()
    verdict = advisor.advise(
        WorkloadProfile(full_queries=100, update_transactions=5)
    )
    assert verdict.materialize
    assert verdict.method is MaintenanceMethod.AUXILIARY
    assert verdict.net_benefit_ios > 0
    assert "materialize with the auxiliary" in verdict.explain()


def test_update_heavy_workload_declines():
    advisor = build_advisor()
    verdict = advisor.advise(
        WorkloadProfile(full_queries=0.1, update_transactions=100_000)
    )
    assert not verdict.materialize
    assert verdict.method is None
    assert verdict.net_benefit_ios <= 0
    assert "do not materialize" in verdict.explain()


def test_pinned_lookups_strongly_favour_views():
    advisor = build_advisor()
    without = advisor.advise(WorkloadProfile(full_queries=5, update_transactions=50))
    with_lookups = advisor.advise(
        WorkloadProfile(full_queries=5, pinned_lookups=500, update_transactions=50)
    )
    assert with_lookups.net_benefit_ios > without.net_benefit_ios


def test_maintenance_uses_best_method():
    advisor = build_advisor()
    verdict = advisor.advise(
        WorkloadProfile(full_queries=50, update_transactions=10)
    )
    assert verdict.maintenance_cost == min(verdict.per_method_maintenance.values())
    assert set(verdict.per_method_maintenance) == {
        "naive", "auxiliary", "global_index",
    }


def test_large_transactions_switch_regimes():
    advisor = build_advisor(clustered=True)
    small = advisor.maintenance_cost_per_txn(MaintenanceMethod.NAIVE, 1)
    huge = advisor.maintenance_cost_per_txn(MaintenanceMethod.NAIVE, 1_000_000)
    # Huge transactions are capped by the cluster-wide fragment pass, not
    # the per-tuple broadcast cost.
    assert huge < 1_000_000 * small


def test_cost_pieces_positive_and_ordered():
    advisor = build_advisor()
    # A starts empty, so the scan estimate bottoms out at one page.
    assert advisor.view_scan_cost() == 1.0
    # Populate A: the view result grows and so does its scan estimate.
    cluster = advisor.cluster
    cluster.insert("A", [(i, i % 500, "e") for i in range(200)])
    grown = advisor.view_scan_cost()
    assert grown > 1.0
    assert advisor.pinned_lookup_cost() < grown
    assert advisor.base_join_cost() > grown
