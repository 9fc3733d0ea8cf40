"""The order contract covers offline builds.

Every offline build (DDL backfills, view materialization, ``repair()``,
the TPC-R and uniform loaders) writes placed batches in bulk.  Each
destination must still receive exactly what per-row inserts in (source
node, scan order) would have written: a fragment's rows in rowid order,
and each GI key's rid-list, equal a per-row replay computed here from the
base fragments without the build's own derivation.
"""

import pytest

from repro import Cluster, HashPartitioning, two_way_view
from repro.cluster.partitioning import stable_hash
from repro.core import Aggregate, AggregateFunction, AggregateSpec
from repro.core import define_aggregate_join_view
from repro.faults import ConsistencyAuditor
from repro.storage import GlobalRowId
from repro.workloads.tpcr import (
    TpcrGenerator,
    jv1_definition,
    jv2_definition,
    load_into,
)
from repro.workloads.uniform import UniformJoinWorkload, build_cluster

SPEC = AggregateSpec(
    (("B", "d"),),
    (
        Aggregate(AggregateFunction.COUNT, "n"),
        Aggregate(AggregateFunction.SUM, "total", source=("A", "e")),
    ),
)


def stored(node, name):
    """A fragment's rows in rowid order."""
    return [row for _, row in sorted(node.fragment(name).table.scan())]


def replay_auxiliary(cluster, aux):
    """The AR per-row inserts would build: base rows in (source node, scan
    order), selected, projected and placed one at a time."""
    base = cluster.catalog.relation(aux.base).schema
    positions = [base.index_of(c) for c in aux.columns or base.column_names]
    placed = {node.node_id: [] for node in cluster.nodes}
    for node in cluster.nodes:
        for _, row in node.fragment(aux.base).table.scan():
            if aux.predicate is None or aux.predicate(row):
                image = tuple(row[p] for p in positions)
                placed[aux.partitioner.node_of_row(image)].append(image)
    return placed


def replay_global_index(cluster, gi):
    """Each home's ``{key: [grid, ...]}`` per-row inserts would build."""
    placed = {node.node_id: {} for node in cluster.nodes}
    for node in cluster.nodes:
        for rowid, row in node.fragment(gi.base).table.scan():
            key = row[gi.key_position]
            home = stable_hash(key) % cluster.num_nodes
            grid = GlobalRowId(node.node_id, rowid)
            placed[home].setdefault(key, []).append(grid)
    return placed


def assert_built_in_replay_order(cluster, loaded=None):
    catalog = cluster.catalog
    assert catalog.auxiliaries and catalog.global_indexes and catalog.views
    for name, aux in catalog.auxiliaries.items():
        expected = replay_auxiliary(cluster, aux)
        assert sum(map(len, expected.values())) > 0
        for node in cluster.nodes:
            assert stored(node, name) == expected[node.node_id], name
    for name, gi in catalog.global_indexes.items():
        expected = replay_global_index(cluster, gi)
        for node in cluster.nodes:
            rid_lists = {
                key: list(grids) for key, grids in node.gi_partition(name).items()
            }
            assert rid_lists == expected[node.node_id], (name, node.node_id)
    for name, info in catalog.views.items():
        placed = info.maintainer.derive()
        for node in cluster.nodes:
            assert stored(node, name) == placed.get(node.node_id, []), name
    for name, rows in (loaded or {}).items():
        node_of_row = catalog.relation(name).partitioner.node_of_row
        for node in cluster.nodes:
            expected = [row for row in rows if node_of_row(row) == node.node_id]
            assert stored(node, name) == expected, (name, node.node_id)


def uniform_cluster():
    workload = UniformJoinWorkload(num_keys=16, fanout=4)
    cluster = build_cluster(workload, num_nodes=4, method="naive")
    # Duplicate rows and duplicate projections: order matters.
    cluster.insert("A", [(i % 40, i % 16, i % 7) for i in range(120)])
    # The loader's view was built empty and then maintained; every
    # structure left is built offline from the loaded data.
    cluster.drop_view("JV")
    for name, method in (("JV_GI", "global_index"), ("JV_AR", "auxiliary")):
        definition = two_way_view(
            name, "A", "c", "B", "d", partitioning=HashPartitioning("e")
        )
        cluster.create_join_view(definition, method=method)
    cluster.create_auxiliary_relation(
        "A", "e", columns=("c",), predicate=lambda row: row[0] % 3 != 0,
        name="AR_A_trim",
    )
    define_aggregate_join_view(
        cluster, two_way_view("AGG", "A", "c", "B", "d"), SPEC,
        method="global_index",
    )
    return cluster, {"B": workload.b_rows()}


def tpcr_cluster():
    dataset = TpcrGenerator(scale=0.001).generate()
    cluster = Cluster(num_nodes=3)
    load_into(cluster, dataset)
    cluster.create_join_view(jv1_definition(), method="global_index")
    cluster.create_join_view(jv2_definition(), method="auxiliary")
    cluster.create_auxiliary_relation(
        "lineitem", "orderkey", columns=("discount",),
        predicate=lambda row: row[0] % 2 == 0, name="AR_lineitem_trim",
    )
    loaded = {
        "customer": dataset.customers,
        "orders": dataset.orders,
        "lineitem": dataset.lineitems,
    }
    return cluster, loaded


SCENARIOS = {"uniform": uniform_cluster, "tpcr": tpcr_cluster}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_offline_build_matches_per_row_replay(scenario):
    cluster, loaded = SCENARIOS[scenario]()
    assert_built_in_replay_order(cluster, loaded)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_repair_after_churn_matches_per_row_replay(scenario):
    cluster, _ = SCENARIOS[scenario]()
    # Deletes leave rowid gaps in the bases and every derived structure.
    for name in sorted(cluster.catalog.relations):
        rows = cluster.scan_relation(name)
        cluster.delete(name, rows[::3])
    report = ConsistencyAuditor(cluster).repair()
    assert report.auxiliaries_rebuilt and report.global_indexes_rebuilt
    assert ConsistencyAuditor(cluster).audit().ok
    for node in cluster.nodes:
        for name in cluster.catalog.auxiliaries:
            rowids = [rowid for rowid, _ in node.fragment(name).table.scan()]
            assert rowids[0] > 0  # rebuilt past the churned rowids
    assert_built_in_replay_order(cluster)
