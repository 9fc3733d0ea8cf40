"""Elastic membership: online join/leave, charged migration, replication.

ISSUE 6's tentpole.  Every topology change must (a) leave all derived
state convergent (the :class:`ConsistencyAuditor` recomputes it from
scratch), (b) bill each relocated row as one modeled SEND plus one
INSERT-weight write under ``Tag.MIGRATE``, and (c) never perturb the
fault-free fixed-topology ledger — pinned here by building the same
workload twice and diffing cells bit-for-bit.
"""

import pytest

from repro import Cluster, Schema
from repro.cluster.membership import available_rows
from repro.core.deferred import defer_view
from repro.costs import Op, Tag
from repro.costs.ledger import format_cell_diff
from repro.faults import (
    ConsistencyAuditor,
    FaultPlan,
    NodeDown,
    attach_faults,
)
from tests.conftest import make_view


def build(method="auxiliary", num_nodes=3, sanitize=True, **kwargs):
    cluster = Cluster(num_nodes=num_nodes, sanitize=sanitize, **kwargs)
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    cluster.insert("B", [(i, i % 5, f"f{i}") for i in range(20)])
    cluster.insert("A", [(i, i % 5, f"e{i}") for i in range(15)])
    make_view(cluster, method, strategy="inl")
    return cluster


def assert_consistent(cluster):
    report = ConsistencyAuditor(cluster).audit()
    assert report.ok, report.summary()


def view_bag(cluster):
    from collections import Counter

    return Counter(cluster.view_rows("JV"))


# ----------------------------------------------------------------- join


@pytest.mark.parametrize("method", ["naive", "auxiliary", "global_index"])
def test_add_node_preserves_all_derived_state(method):
    cluster = build(method)
    before = view_bag(cluster)
    report = cluster.add_node()
    assert cluster.num_nodes == 4
    assert len(cluster.nodes) == 4
    assert report.kind == "join"
    assert report.moved_rows > 0
    assert view_bag(cluster) == before
    assert_consistent(cluster)


def test_add_node_charges_migration_sends_and_writes():
    cluster = build()
    snap_before = cluster.ledger.snapshot()
    assert snap_before.total_workload(tags=[Tag.MIGRATE]) == 0
    report = cluster.add_node()
    snap = cluster.ledger.snapshot()
    migrate_ios = snap.total_workload(tags=[Tag.MIGRATE])
    assert migrate_ios > 0
    # Each migrated row costs exactly one SEND plus two INSERT-weight
    # writes (the handoff delete at the source and the insert at the
    # destination); the join announcement broadcast adds one SEND per node.
    sends = sum(
        count
        for (_n, op, tag), count in cluster.ledger._cells.items()
        if tag is Tag.MIGRATE and op is Op.SEND
    )
    writes = sum(
        count
        for (_n, op, tag), count in cluster.ledger._cells.items()
        if tag is Tag.MIGRATE and op is Op.INSERT
    )
    assert writes == 2 * report.moved_rows
    assert sends == report.moved_rows + cluster.num_nodes


def test_add_node_extends_topology_state():
    cluster = build()
    cluster.add_node()
    membership = cluster.membership
    assert membership.tokens == [0, 1, 2, 3]
    assert membership.epoch == 1
    assert [e.kind for e in membership.events] == ["join"]
    assert cluster.peak_num_nodes == 4
    # The new node carries every fragment and index the others do.
    new = cluster.nodes[3]
    for name in ("A", "B", "JV"):
        assert new.has_fragment(name)


def test_add_node_then_updates_flow_through_new_node():
    cluster = build()
    cluster.add_node()
    cluster.insert("A", [(100 + i, i % 5, "post-join") for i in range(20)])
    cluster.delete("A", [(3, 3, "e3")])
    assert_consistent(cluster)
    # Modulo partitioning over 4 nodes now homes key 103 at node 3.
    assert any(row[0] == 103 for row in cluster.nodes[3].scan("A"))


# ---------------------------------------------------------------- leave


@pytest.mark.parametrize("method", ["naive", "auxiliary", "global_index"])
def test_remove_node_preserves_all_derived_state(method):
    cluster = build(method)
    before = view_bag(cluster)
    report = cluster.remove_node(1)
    assert cluster.num_nodes == 2
    assert report.kind == "leave"
    assert report.moved_rows > 0
    assert view_bag(cluster) == before
    assert_consistent(cluster)
    # Dense renumbering: surviving ids are exactly 0..L-1 again.
    assert [node.node_id for node in cluster.nodes] == [0, 1]
    assert cluster.membership.tokens == [0, 2]


def test_remove_node_validates_arguments():
    cluster = build(num_nodes=2)
    with pytest.raises(ValueError):
        cluster.remove_node(7)
    cluster.remove_node(1)
    with pytest.raises(ValueError):
        cluster.remove_node(0)  # a cluster keeps at least one node


def test_join_then_leave_round_trip_converges():
    cluster = build()
    before = view_bag(cluster)
    cluster.add_node()
    cluster.remove_node(0)
    cluster.add_node()
    assert view_bag(cluster) == before
    assert_consistent(cluster)
    # Tokens never recycle: node 0's token 0 is gone for good.
    assert cluster.membership.tokens == [1, 2, 3, 4]


def test_membership_change_flushes_deferred_views():
    cluster = build()
    wrapper = defer_view(cluster, "JV")
    cluster.insert("A", [(200, 1, "queued")])
    assert wrapper.is_stale
    cluster.add_node()
    assert not wrapper.is_stale  # flushed before fragments moved
    assert_consistent(cluster)


def test_membership_change_refused_inside_transaction():
    cluster = build()
    controller = attach_faults(cluster, plan=FaultPlan())
    with pytest.raises(RuntimeError):
        with controller.atomic("scope"):
            cluster.add_node()


# ----------------------------------------------------------- replication


def test_enable_replication_initial_build_is_uncharged():
    cluster = build()
    cells_before = dict(cluster.ledger._cells)
    cluster.enable_replication(k=2)
    assert dict(cluster.ledger._cells) == cells_before
    assert cluster.membership.replication == 2
    # Every fragment has a bag on its ring successor.
    findings = ConsistencyAuditor(cluster).audit_replicas()
    assert findings == []


def test_enable_replication_twice_rejected():
    cluster = build()
    cluster.enable_replication()
    with pytest.raises(RuntimeError):
        cluster.enable_replication()
    cluster.disable_replication()
    cluster.enable_replication(k=3)
    assert cluster.replicator.k == 3


def test_replicated_writes_charge_replica_tag():
    cluster = build()
    cluster.enable_replication(k=2)
    cluster.insert("A", [(300, 2, "x"), (301, 3, "y")])
    sends = sum(
        count
        for (_n, op, tag), count in cluster.ledger._cells.items()
        if tag is Tag.REPLICA and op is Op.SEND
    )
    assert sends > 0
    assert_consistent(cluster)


def test_replication_survives_membership_changes():
    cluster = build()
    cluster.enable_replication(k=2)
    cluster.add_node()
    assert_consistent(cluster)
    cluster.remove_node(2)
    assert_consistent(cluster)
    cluster.insert("A", [(400, 1, "after")])
    assert_consistent(cluster)


def test_rolled_back_statement_leaves_replicas_exact():
    cluster = build(method="auxiliary")
    cluster.enable_replication(k=2)
    controller = attach_faults(cluster, plan=FaultPlan())
    # atomic() rolls back on FaultError; a synthetic NodeDown stands in
    # for any mid-transaction fault after the insert fully applied.
    with pytest.raises(NodeDown):
        with controller.atomic("doomed"):
            cluster.insert("A", [(500, 4, "phantom")])
            raise NodeDown(0, "synthetic abort")
    assert all(row[0] != 500 for row in cluster.scan_relation("A"))
    assert_consistent(cluster)


def test_available_rows_serves_crashed_node_from_replica():
    cluster = build()
    cluster.enable_replication(k=2)
    whole = sorted(cluster.scan_relation("A"))
    attach_faults(cluster, plan=FaultPlan().crash(node=1, after_messages=0))
    cluster.faults.injector.on_message(0, 2)  # trip the crash gate
    assert cluster.faults.injector.is_down(1)
    fetches_before = sum(
        count
        for (_n, op, tag), count in cluster.ledger._cells.items()
        if op is Op.FETCH and tag is Tag.QUERY
    )
    rows = sorted(available_rows(cluster, "A"))
    assert rows == whole  # nothing lost: the replica bag fills the hole
    fetches_after = sum(
        count
        for (_n, op, tag), count in cluster.ledger._cells.items()
        if op is Op.FETCH and tag is Tag.QUERY
    )
    served = len(cluster.nodes[2].replica_rows(1, "A"))
    assert fetches_after - fetches_before == served > 0


def test_available_rows_without_replication_raises_on_down_node():
    cluster = build()
    attach_faults(cluster, plan=FaultPlan().crash(node=1, after_messages=0))
    cluster.faults.injector.on_message(0, 2)
    with pytest.raises(NodeDown):
        available_rows(cluster, "A")


# ------------------------------------------------- fixed-topology identity


def test_fixed_topology_ledger_untouched_by_elastic_machinery():
    """A cluster that never joins/leaves/replicates charges exactly what
    an identically-driven cluster does — the elastic layer is free until
    used."""

    def run():
        cluster = build(sanitize=False)
        cluster.insert("A", [(600 + i, i % 5, "w") for i in range(10)])
        cluster.delete("B", [(4, 4, "f4")])
        return cluster

    first, second = run(), run()
    diff = first.ledger.diff(second.ledger)
    assert not diff, format_cell_diff(diff)
    assert first.membership.epoch == 0
    assert first.membership.events == []
