"""Tests for repro.workloads (TPC-R generator, uniform scenario, streams)."""

from collections import Counter

import pytest

from repro import Cluster
from repro.cluster.partitioning import stable_hash
from repro.workloads import (
    LINEITEMS_PER_ORDER,
    TpcrGenerator,
    UniformJoinWorkload,
    UpdateStream,
    batch_sizes_sweep,
    build_cluster,
    jv1_definition,
    jv2_definition,
    load_into,
)
from repro.workloads.updates import OpKind


# ----------------------------------------------------------------- TPC-R


def test_tpcr_cardinalities_follow_table1_ratios():
    dataset = TpcrGenerator(scale=0.001).generate()
    assert len(dataset.customers) == 150
    assert len(dataset.orders) == 1_500
    assert len(dataset.lineitems) == 6_000


def test_tpcr_each_customer_matches_one_order():
    dataset = TpcrGenerator(scale=0.001).generate()
    orders_by_custkey = Counter(order[1] for order in dataset.orders)
    for customer in dataset.customers:
        assert orders_by_custkey[customer[0]] == 1


def test_tpcr_each_order_matches_four_lineitems():
    dataset = TpcrGenerator(scale=0.001).generate()
    lineitems_by_order = Counter(item[1] for item in dataset.lineitems)
    for order in dataset.orders:
        assert lineitems_by_order[order[0]] == LINEITEMS_PER_ORDER


def test_tpcr_deterministic():
    a = TpcrGenerator(scale=0.001, seed=1).generate()
    b = TpcrGenerator(scale=0.001, seed=1).generate()
    assert a.customers == b.customers
    assert a.orders == b.orders


def test_tpcr_new_customers_match_dangling_orders():
    generator = TpcrGenerator(scale=0.001)
    dataset = generator.generate()
    delta = generator.new_customers(10, starting_at=len(dataset.customers))
    order_custkeys = {order[1] for order in dataset.orders}
    for row in delta:
        assert row[0] in order_custkeys


def test_tpcr_invalid_scale():
    with pytest.raises(ValueError):
        TpcrGenerator(scale=0)


def test_tpcr_summary_rows():
    dataset = TpcrGenerator(scale=0.01).generate()
    summary = {name: (tuples, mb) for name, tuples, mb in dataset.summary_rows()}
    assert summary["customer"][0] == 1_500
    assert summary["orders"][1] == pytest.approx(1.78, rel=0.01)


def test_load_into_cluster_partitions_correctly():
    cluster = Cluster(4)
    dataset = TpcrGenerator(scale=0.001).generate()
    load_into(cluster, dataset)
    assert cluster.statistics.rows("orders") == 1_500
    position = cluster.catalog.relation("customer").schema.index_of("custkey")
    for node in cluster.nodes:
        for row in node.scan("customer"):
            assert stable_hash(row[position]) % 4 == node.node_id


def test_jv_definitions_bind_and_maintain():
    cluster = Cluster(2)
    generator = TpcrGenerator(scale=0.001)
    load_into(cluster, generator.generate())
    cluster.create_join_view(jv1_definition(), method="auxiliary")
    cluster.create_join_view(jv2_definition(partitioned=False), method="naive")
    assert len(cluster.view_rows("JV1")) == 150
    assert len(cluster.view_rows("JV2")) == 150 * LINEITEMS_PER_ORDER
    delta = generator.new_customers(4, starting_at=150)
    cluster.insert("customer", delta)
    assert len(cluster.view_rows("JV1")) == 154
    assert len(cluster.view_rows("JV2")) == 154 * LINEITEMS_PER_ORDER


# --------------------------------------------------------------- uniform


def test_uniform_b_rows_fanout():
    workload = UniformJoinWorkload(num_keys=8, fanout=3)
    by_key = Counter(row[1] for row in workload.b_rows())
    assert all(count == 3 for count in by_key.values())
    assert len(by_key) == 8


def test_uniform_matches_spread_over_min_n_l_nodes():
    workload = UniformJoinWorkload(num_keys=8, fanout=3)
    for num_nodes in (2, 4, 8):
        for key in range(8):
            nodes = {
                stable_hash(row[0]) % num_nodes
                for row in workload.b_rows()
                if row[1] == key
            }
            assert len(nodes) == min(3, num_nodes)


def test_uniform_a_rows_cycle_keys():
    workload = UniformJoinWorkload(num_keys=4, fanout=1)
    keys = [row[1] for row in workload.a_rows(8)]
    assert keys == [0, 1, 2, 3, 0, 1, 2, 3]


def test_uniform_a_stream_matches_a_rows():
    workload = UniformJoinWorkload(num_keys=4, fanout=1)
    stream = workload.a_stream()
    assert [next(stream) for _ in range(3)] == workload.a_rows(3)


def test_build_cluster_ready_to_measure():
    workload = UniformJoinWorkload(num_keys=8, fanout=2)
    cluster = build_cluster(workload, num_nodes=4, method="auxiliary")
    assert cluster.statistics.rows("B") == 16
    snapshot = cluster.insert("A", [workload.a_row(0)])
    assert len(cluster.view_rows("JV")) == 2
    assert snapshot.maintenance_workload() > 0


# ---------------------------------------------------------------- streams


def test_update_stream_insert_only():
    stream = UpdateStream("A", lambda i: (i, i % 3, "x"), batch_size=2)
    ops = list(stream.ops(3))
    assert all(op.kind is OpKind.INSERT for op in ops)
    assert all(len(op.rows) == 2 for op in ops)
    serials = [row[0] for op in ops for row in op.rows]
    assert serials == list(range(6))


def test_update_stream_mixed_is_consistent(ab_cluster):
    from tests.conftest import make_view
    from repro import recompute_view

    make_view(ab_cluster, "auxiliary")
    stream = UpdateStream(
        "A",
        lambda i: (i, i % 5, f"e{i}"),
        mix=(0.5, 0.25, 0.25),
        update_row=lambda row, serial: (row[0], serial % 5, row[2]),
        seed=11,
    )
    for op in stream.ops(30):
        op.apply_to(ab_cluster)
    assert Counter(ab_cluster.view_rows("JV")) == recompute_view(ab_cluster, "JV")


def test_update_stream_batched_updates_draw_distinct_victims(ab_cluster):
    """Regression: one UPDATE batch used to be able to draw the same live
    row twice, and ``Cluster.update`` rejected the statement (``KeyError``:
    its second change deletes an image that is not stored yet)."""
    from tests.conftest import make_view
    from repro import recompute_view

    make_view(ab_cluster, "auxiliary")
    stream = UpdateStream(
        "A",
        lambda i: (i, i % 5, f"e{i}"),
        batch_size=8,
        mix=(0.4, 0.2, 0.4),
        update_row=lambda row, serial: (row[0], serial % 5, row[2]),
        seed=11,
    )
    updates = 0
    for op in stream.ops(500):
        if op.kind is OpKind.UPDATE:
            updates += 1
            olds = [old for old, _ in op.changes]
            assert len(set(olds)) == len(olds) == 8
        op.apply_to(ab_cluster)
    assert updates > 100
    assert Counter(ab_cluster.view_rows("JV")) == recompute_view(ab_cluster, "JV")


def test_update_stream_deterministic():
    make = lambda: UpdateStream("A", lambda i: (i,), mix=(0.6, 0.2, 0.2), seed=3)
    a = [(op.kind, op.rows, op.changes) for op in make().ops(20)]
    b = [(op.kind, op.rows, op.changes) for op in make().ops(20)]
    assert a == b


def test_update_stream_validation():
    with pytest.raises(ValueError):
        UpdateStream("A", lambda i: (i,), batch_size=0)
    with pytest.raises(ValueError):
        UpdateStream("A", lambda i: (i,), mix=(0.5, 0.5, 0.5))


def test_batch_sizes_sweep_log_spaced():
    sizes = batch_sizes_sweep(1, 1000, steps_per_decade=1)
    assert sizes[0] == 1
    assert sizes[-1] == 1000
    assert sizes == sorted(set(sizes))
