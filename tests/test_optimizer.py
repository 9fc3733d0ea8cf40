"""Tests for repro.core.optimizer (planning, pricing, method advice)."""

import pytest

from repro import Cluster, HashPartitioning, MaintenanceMethod, Schema, two_way_view
from repro.core import BoundView, MethodAdvisor, PlanningError
from repro.core.multiway import AuxiliaryAccess, BaseAccess, GlobalIndexAccess
from repro.core.optimizer import MaintenancePlanner
from repro.core.view import JoinCondition, JoinViewDefinition

A = Schema.of("A", "a", "c", "e")
B = Schema.of("B", "b", "d", "f")
C = Schema.of("C", "g", "h", "p")


def fresh_cluster():
    cluster = Cluster(4)
    cluster.create_relation(A, partitioned_on="a")
    cluster.create_relation(B, partitioned_on="b")
    cluster.insert("B", [(i, i % 5, f"f{i}") for i in range(20)])
    return cluster


def bound_for(cluster, definition):
    return BoundView(
        definition,
        {name: cluster.catalog.relation(name).schema
         for name in definition.relations},
    )


def test_resolve_access_naive_requires_index():
    cluster = fresh_cluster()
    bound = bound_for(cluster, two_way_view("JV", "A", "c", "B", "d"))
    planner = MaintenancePlanner(cluster, bound, MaintenanceMethod.NAIVE)
    with pytest.raises(PlanningError, match="local index"):
        planner.resolve_access("B", "d")
    cluster.create_index("B", "d")
    access = planner.resolve_access("B", "d")
    assert isinstance(access, BaseAccess) and access.broadcast


def test_resolve_access_partitioned_base_is_colocated():
    cluster = Cluster(4)
    cluster.create_relation(A, partitioned_on="a")
    cluster.create_relation(B, partitioned_on="d", indexes=[("d", True)])
    bound = bound_for(cluster, two_way_view("JV", "A", "c", "B", "d"))
    for method in MaintenanceMethod:
        planner = MaintenancePlanner(cluster, bound, method)
        access = planner.resolve_access("B", "d")
        assert isinstance(access, BaseAccess)
        assert not access.broadcast
        assert access.clustered


def test_resolve_access_auxiliary_requires_ar():
    cluster = fresh_cluster()
    bound = bound_for(cluster, two_way_view("JV", "A", "c", "B", "d"))
    planner = MaintenancePlanner(cluster, bound, MaintenanceMethod.AUXILIARY)
    with pytest.raises(PlanningError, match="auxiliary"):
        planner.resolve_access("B", "d")
    cluster.create_auxiliary_relation("B", "d")
    access = planner.resolve_access("B", "d")
    assert isinstance(access, AuxiliaryAccess)


def test_resolve_access_gi_requires_gi():
    cluster = fresh_cluster()
    bound = bound_for(cluster, two_way_view("JV", "A", "c", "B", "d"))
    planner = MaintenancePlanner(cluster, bound, MaintenanceMethod.GLOBAL_INDEX)
    with pytest.raises(PlanningError, match="global index"):
        planner.resolve_access("B", "d")
    cluster.create_global_index("B", "d")
    access = planner.resolve_access("B", "d")
    assert isinstance(access, GlobalIndexAccess)


def test_plan_cache_invalidated_by_cardinality_change():
    cluster = fresh_cluster()
    cluster.create_index("B", "d")
    bound = bound_for(cluster, two_way_view("JV", "A", "c", "B", "d"))
    planner = MaintenancePlanner(cluster, bound, MaintenanceMethod.NAIVE)
    plan1 = planner.plan_for("A")
    assert planner.plan_for("A") is plan1  # cached
    cluster.insert("B", [(100, 1, "x")])
    assert planner.plan_for("A") is not plan1  # stats signature changed

    # Three relations: B's delta has two hop orders, so its compiled plan is
    # keyed on the cardinality signature, read on every statement.
    cluster.create_relation(C, partitioned_on="p")
    for relation, column in (("A", "c"), ("B", "f"), ("C", "g")):
        cluster.create_index(relation, column)
    chain = JoinViewDefinition(
        "JV3",
        ("A", "B", "C"),
        (JoinCondition("A", "c", "B", "d"), JoinCondition("B", "f", "C", "g")),
    )
    planner = MaintenancePlanner(
        cluster, bound_for(cluster, chain), MaintenanceMethod.NAIVE
    )
    compiled = planner.compiled_for("B")
    assert planner.compiled_for("B") is compiled
    cluster.insert("C", [(1, "h", 0)])
    assert planner.compiled_for("B") is not compiled


def test_alternatives_sorted_by_cost_triangle():
    """§2.2's optimization problem: the cheapest of the 4 triangle plans
    probes the lower-fanout side first."""
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
    cluster = Cluster(4)
    cluster.create_relation(a, partitioned_on="pa")
    cluster.create_relation(b, partitioned_on="pb")
    cluster.create_relation(c, partitioned_on="pc")
    # B: huge fanout on y2 (all rows share y2=1); C: fanout 1 on x2.
    cluster.insert("B", [(1, i, i) for i in range(20)])
    cluster.insert("C", [(i, i, i) for i in range(20)])
    cluster.create_auxiliary_relation("B", "y2")
    cluster.create_auxiliary_relation("B", "z")
    cluster.create_auxiliary_relation("C", "z2")
    cluster.create_auxiliary_relation("C", "x2")
    cluster.create_auxiliary_relation("A", "y")
    cluster.create_auxiliary_relation("A", "x")
    bound = BoundView(definition, {"A": a, "B": b, "C": c})
    planner = MaintenancePlanner(cluster, bound, MaintenanceMethod.AUXILIARY)
    alternatives = planner.alternatives("A")
    assert len(alternatives) == 4
    costs = [cost for _, cost in alternatives]
    assert costs == sorted(costs)
    # The best plan starts at C (fanout 1), not B (fanout 20).
    best_plan, _ = alternatives[0]
    assert best_plan.hops[0].partner == "C"


def big_b_cluster(rows: int = 5_000):
    """B large enough that its fragments span multiple pages, so the
    index-vs-scan regime choice is non-trivial (fanout 1 per key)."""
    cluster = Cluster(4)
    cluster.create_relation(A, partitioned_on="a")
    cluster.create_relation(B, partitioned_on="b")
    b_info = cluster.catalog.relation("B")
    for i in range(rows):
        row = (i, i, f"f{i}")
        cluster.nodes[b_info.partitioner.node_of_row(row)].fragment("B").insert(row)
    return cluster


def test_prefer_sort_merge_for_large_deltas():
    cluster = big_b_cluster()
    cluster.create_index("B", "d")
    bound = bound_for(cluster, two_way_view("JV", "A", "c", "B", "d"))
    planner = MaintenancePlanner(cluster, bound, MaintenanceMethod.NAIVE)
    plan = planner.plan_for("A")
    hop = plan.hops[0]
    assert not planner.prefer_sort_merge(hop, state_size=1)
    assert planner.prefer_sort_merge(hop, state_size=10_000)


def test_method_advisor_small_updates_pick_auxiliary():
    cluster = big_b_cluster()
    bound = bound_for(cluster, two_way_view("JV", "A", "c", "B", "d"))
    advisor = MethodAdvisor(cluster, bound)
    verdict = advisor.recommend(update_size=10)
    assert verdict.method is MaintenanceMethod.AUXILIARY
    assert "auxiliary" in verdict.reason
    assert set(verdict.per_method_response) == {
        "naive", "auxiliary", "global_index"
    }


def test_method_advisor_huge_clustered_updates_pick_naive():
    cluster = fresh_cluster()
    advisorbound = bound_for(cluster, two_way_view("JV", "A", "c", "B", "d"))
    advisor = MethodAdvisor(cluster, advisorbound)
    verdict = advisor.recommend(update_size=100_000, clustered_base_indexes=True)
    assert verdict.method is MaintenanceMethod.NAIVE


def test_method_advisor_storage_budget_forces_naive():
    cluster = fresh_cluster()
    bound = bound_for(cluster, two_way_view("JV", "A", "c", "B", "d"))
    advisor = MethodAdvisor(cluster, bound)
    verdict = advisor.recommend(update_size=10, storage_budget_tuples=0)
    assert verdict.method is MaintenanceMethod.NAIVE
    assert verdict.storage_overhead_tuples == 0


def test_method_advisor_infeasible_budget():
    cluster = fresh_cluster()
    bound = bound_for(cluster, two_way_view("JV", "A", "c", "B", "d"))
    advisor = MethodAdvisor(cluster, bound)
    # Budget below zero is unsatisfiable even by naive.
    with pytest.raises(PlanningError):
        advisor.recommend(update_size=10, storage_budget_tuples=-1)


def test_storage_overhead_counts_unpartitioned_sides():
    cluster = fresh_cluster()
    bound = bound_for(cluster, two_way_view("JV", "A", "c", "B", "d"))
    advisor = MethodAdvisor(cluster, bound)
    assert advisor.storage_overhead(MaintenanceMethod.NAIVE) == 0
    # A empty (0) + B (20): both sides unpartitioned on join attrs.
    assert advisor.storage_overhead(MaintenanceMethod.AUXILIARY) == 20
    assert advisor.storage_overhead(MaintenanceMethod.GLOBAL_INDEX) == 20
