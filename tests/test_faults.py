"""Unit tests for the fault-injection and recovery subsystem."""

import pytest

from repro import Cluster, Schema
from repro.costs import Op, Tag
from repro.faults import (
    ConsistencyAuditor,
    FaultInjector,
    FaultPlan,
    NodeDown,
    ProbeFailure,
    RecoveryPolicy,
    UndoLog,
    attach_faults,
    detach_faults,
)
from tests.conftest import make_view


def build(method="auxiliary", strategy="inl"):
    cluster = Cluster(num_nodes=4)
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    cluster.insert("B", [(i, i % 5, f"f{i}") for i in range(20)])
    make_view(cluster, method, strategy=strategy)
    return cluster


# ------------------------------------------------------------------- plan


def test_plan_events_are_pure_data():
    plan = FaultPlan().crash(node=1, after_messages=5).drop(times=2)
    assert len(plan.events) == 2
    with pytest.raises(AttributeError):
        plan.events[0].node = 3  # frozen


def test_scaled_multiplies_probabilities_and_caps_at_one():
    plan = FaultPlan().drop(probability=0.2).duplicate(probability=0.8).scaled(1.5)
    assert [event.probability for event in plan.events] == [
        pytest.approx(0.3),
        pytest.approx(1.0),
    ]
    # Counted events carry no probability and are untouched.
    counted = FaultPlan().drop(times=2).scaled(3.0)
    assert counted.events[0].times == 2


def test_single_fault_schedules_cover_every_fault_class():
    schedules = FaultPlan.single_fault_schedules()
    assert set(schedules) == {
        "node_crash", "message_drop", "message_duplication", "probe_failure",
    }
    for plan in schedules.values():
        assert len(plan.events) == 1


# --------------------------------------------------------------- injector


def test_injector_is_deterministic_per_seed():
    def fates(seed):
        injector = FaultInjector(FaultPlan().drop(probability=0.5), seed=seed)
        return [injector.on_message(0, 1).value for _ in range(32)]

    assert fates(5) == fates(5)
    assert fates(5) != fates(6)


def test_crash_fires_after_message_gate():
    injector = FaultInjector(FaultPlan().crash(node=2, after_messages=3))
    assert not injector.is_down(2)
    for _ in range(3):
        injector.on_message(0, 1)
    assert injector.is_down(2)
    assert injector.restart_all() == [2]
    assert not injector.is_down(2)


def test_counted_events_exhaust():
    injector = FaultInjector(FaultPlan().drop(times=2))
    fates = [injector.on_message(0, 1).value for _ in range(4)]
    assert fates == ["dropped", "dropped", "delivered", "delivered"]
    assert injector.exhausted()


# --------------------------------------------------------------- undo log


def test_undo_log_rolls_back_in_reverse_order():
    order = []
    log = UndoLog()
    log.record(lambda: order.append("first"))
    log.record(lambda: order.append("second"))
    report = log.rollback()
    assert order == ["second", "first"]
    assert report.entries_undone == 2
    assert len(log) == 0


def test_undo_log_charges_physical_writes():
    from repro.costs import CostLedger, CostParameters

    ledger = CostLedger(CostParameters())
    log = UndoLog()
    log.record(lambda: None, node=1, tag=Tag.BASE, writes=2)
    log.record(lambda: None)  # bookkeeping: never charged
    report = log.rollback(ledger=ledger, charge=True)
    assert report.writes_charged == 2
    assert ledger.snapshot().op_count(Op.INSERT, [Tag.BASE]) == 2


def test_undo_log_merge_into_parent():
    parent, child = UndoLog(), UndoLog()
    child.record(lambda: None)
    child.merge_into(parent)
    assert len(parent) == 1 and len(child) == 0


# ------------------------------------------------------- rollback / queue


def test_crashed_statement_rolls_back_and_queues():
    cluster = build("auxiliary")
    controller = attach_faults(
        cluster, plan=FaultPlan().crash(node=2, after_messages=0), seed=0
    )
    before_rows = sorted(cluster.scan_relation("A"))
    view_before = sorted(cluster.view_rows("JV"))
    for i in range(6):
        cluster.insert("A", [(100 + i, i % 5, i)])
    assert controller.stats.rollbacks + controller.stats.queued > 0
    # Rolled-back statements left no trace beyond the queue.
    assert ConsistencyAuditor(cluster).audit().ok
    report = controller.recover()
    assert report.replayed >= 1
    assert report.still_pending == 0
    assert controller.pending == []
    assert sorted(cluster.scan_relation("A")) != before_rows
    assert sorted(cluster.view_rows("JV")) != view_before
    assert ConsistencyAuditor(cluster).audit().ok


def test_rollback_preserves_rowids_for_gi():
    """A rolled-back *delete* must restore the row under its old rowid, or
    the GI's rid-lists would dangle."""
    cluster = build("global_index")
    # Crash node 2 late enough that the delete's base write succeeds and
    # the fault hits during maintenance.
    controller = attach_faults(
        cluster, plan=FaultPlan().crash(node=2, after_messages=1), seed=0
    )
    cluster.delete("B", [(0, 0, "f0")])
    controller.recover()
    assert ConsistencyAuditor(cluster).audit().ok


def test_probe_failures_charge_wasted_searches():
    cluster = build("auxiliary")
    attach_faults(cluster, plan=FaultPlan().fail_probe(times=2), seed=0)
    before = cluster.ledger.snapshot()
    cluster.insert("A", [(100, 0, 0)])
    wasted = cluster.ledger.diff_since(before)
    baseline_cluster = build("auxiliary")
    base_before = baseline_cluster.ledger.snapshot()
    baseline_cluster.insert("A", [(100, 0, 0)])
    baseline = baseline_cluster.ledger.diff_since(base_before)
    assert (
        wasted.op_count(Op.SEARCH) == baseline.op_count(Op.SEARCH) + 2
    )


def test_probe_retry_budget_exhaustion_aborts_statement():
    cluster = build("auxiliary")
    controller = attach_faults(
        cluster,
        plan=FaultPlan().fail_probe(times=50),
        seed=0,
        policy=RecoveryPolicy(max_probe_retries=2),
    )
    cluster.insert("A", [(100, 0, 0)])  # aborted + queued, not raised
    assert controller.stats.queued == 1
    assert ConsistencyAuditor(cluster).audit().ok


def test_queue_disabled_raises_statement_aborted():
    from repro.faults import StatementAborted

    cluster = build("auxiliary")
    attach_faults(
        cluster,
        plan=FaultPlan().crash(node=2, after_messages=0),
        seed=0,
        policy=RecoveryPolicy(queue_on_failure=False),
    )
    victim = next(
        i for i in range(40)
        if cluster.catalog.relation("A").partitioner.node_of_row((i, i % 5, 0)) == 2
    )
    with pytest.raises(StatementAborted):
        cluster.insert("A", [(victim, victim % 5, 0)])


# -------------------------------------------------------------- degrade


def test_degraded_mode_applies_base_writes_and_rebuilds():
    cluster = build("auxiliary")
    controller = attach_faults(
        cluster,
        plan=FaultPlan().crash(node=2, after_messages=0),
        seed=0,
        policy=RecoveryPolicy(degrade_when_down=True),
    )
    applied = 0
    for i in range(8):
        row = (100 + i, i % 5, i)
        if cluster.catalog.relation("A").partitioner.node_of_row(row) == 2:
            continue  # base write itself needs the dead node: not degradable
        cluster.insert("A", [row])
        applied += 1
    assert applied > 0
    assert controller.stats.degraded_statements > 0
    assert controller.needs_rebuild
    # Base rows landed even though AR/view maintenance was blocked.
    assert len(cluster.scan_relation("A")) == applied
    report = controller.recover()
    assert report.rebuilt is not None
    assert not controller.needs_rebuild
    assert ConsistencyAuditor(cluster).audit().ok


# ---------------------------------------------------- auditor / repair


def test_auditor_detects_planted_corruption():
    cluster = build("auxiliary")
    cluster.insert("A", [(100, 0, 0)])
    assert ConsistencyAuditor(cluster).audit().ok
    # Vandalize one AR fragment behind the cluster's back.
    ar_name = next(iter(cluster.catalog.auxiliaries))
    for node in cluster.nodes:
        rows = node.fragment(ar_name).table.rows()
        if rows:
            node.fragment(ar_name).delete_matching(rows[0])
            break
    report = ConsistencyAuditor(cluster).audit()
    assert not report.ok
    assert any(f.kind == "auxiliary" for f in report.findings)
    ConsistencyAuditor(cluster).repair()
    assert ConsistencyAuditor(cluster).audit().ok


def test_auditor_detects_gi_corruption():
    cluster = build("global_index")
    cluster.insert("A", [(100, 0, 0)])
    gi_name = next(iter(cluster.catalog.global_indexes))
    for node in cluster.nodes:
        entries = list(node.gi_partition(gi_name).entries())
        if entries:
            key, grid = entries[0]
            node.gi_partition(gi_name).delete(key, grid)
            break
    report = ConsistencyAuditor(cluster).audit()
    assert any(f.kind == "global_index" for f in report.findings)
    ConsistencyAuditor(cluster).repair()
    assert ConsistencyAuditor(cluster).audit().ok


# -------------------------------------------------- attach/detach contract


def test_attach_twice_is_rejected():
    cluster = build()
    attach_faults(cluster, plan=FaultPlan())
    with pytest.raises(ValueError):
        attach_faults(cluster, plan=FaultPlan())


def test_detach_restores_fault_free_charging():
    cluster = build()
    attach_faults(cluster, plan=FaultPlan().drop(times=100), seed=0)
    detach_faults(cluster)
    cluster.insert("A", [(100, 0, 0)])  # would raise MessageLost if attached
    assert cluster.network.injector is None
    assert all(node.faults is None for node in cluster.nodes)
    assert ConsistencyAuditor(cluster).audit().ok


def test_provisioning_requires_all_nodes_up():
    cluster = Cluster(num_nodes=4)
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    controller = attach_faults(cluster, plan=FaultPlan())
    controller.injector.crash(1)
    with pytest.raises(NodeDown):
        make_view(cluster, "auxiliary")


# ------------------------------------------------------ transactions API


def test_transaction_rollback_restores_everything():
    cluster = build("auxiliary")
    baseline = {
        "A": sorted(cluster.scan_relation("A")),
        "JV": sorted(cluster.view_rows("JV")),
        "count": cluster.statistics.rows("A"),
    }
    with cluster.transaction() as txn:
        txn.insert("A", [(100, 0, 0), (101, 1, 1)])
        txn.delete("B", [(0, 0, "f0")])
        txn.rollback()
    assert txn.report.rolled_back
    assert sorted(cluster.scan_relation("A")) == baseline["A"]
    assert sorted(cluster.view_rows("JV")) == baseline["JV"]
    assert cluster.statistics.rows("A") == baseline["count"]
    assert ConsistencyAuditor(cluster).audit().ok
    with pytest.raises(RuntimeError):
        txn.insert("A", [(102, 2, 2)])  # rollback closed the transaction


def test_transaction_exception_auto_rolls_back():
    cluster = build("global_index")
    before = sorted(cluster.view_rows("JV"))
    with pytest.raises(KeyError):
        with cluster.transaction() as txn:
            txn.insert("A", [(100, 0, 0)])
            txn.delete("A", [(999, 9, 9)])  # not stored: statement fails
    assert txn.report.rolled_back
    assert sorted(cluster.view_rows("JV")) == before
    assert ConsistencyAuditor(cluster).audit().ok


def test_plain_transaction_commit_unchanged():
    cluster = build("naive")
    with cluster.transaction() as txn:
        txn.insert("A", [(100, 0, 0)])
    assert not txn.report.rolled_back
    assert cluster._undo_logs == []
    assert len(cluster.view_rows("JV")) == 4


# ----------------------------------------------------- deferred views


def test_deferred_queue_rolls_back_with_statement():
    from repro.core.deferred import defer_view

    cluster = build("auxiliary")
    wrapper = defer_view(cluster, "JV")
    controller = attach_faults(
        cluster, plan=FaultPlan().crash(node=2, after_messages=0), seed=0
    )
    for i in range(6):
        cluster.insert("A", [(100 + i, i % 5, i)])
    queued_now = wrapper.pending_changes
    # Statements that rolled back must not have left deltas queued: pending
    # changes reflect only the statements that committed.
    applied = len(cluster.scan_relation("A"))
    assert queued_now == applied
    controller.recover()
    wrapper.refresh()
    assert ConsistencyAuditor(cluster).audit().ok


def test_repair_discards_deferred_queue():
    from repro.core.deferred import defer_view

    cluster = build("auxiliary")
    wrapper = defer_view(cluster, "JV")
    cluster.insert("A", [(100, 0, 0)])
    assert wrapper.is_stale
    ConsistencyAuditor(cluster).repair()
    assert not wrapper.is_stale  # queue discarded, not double-applied
    assert ConsistencyAuditor(cluster, flush_deferred=False).audit().ok


# -------------------------------------------------------- node satellite


def test_drop_fragment_unknown_name_is_descriptive():
    cluster = Cluster(num_nodes=2)
    with pytest.raises(KeyError, match="stores no fragment of 'ghost'"):
        cluster.nodes[0].drop_fragment("ghost")


def test_drop_gi_partition_unknown_name_is_descriptive():
    cluster = Cluster(num_nodes=2)
    with pytest.raises(KeyError, match="holds no partition of GI 'ghost'"):
        cluster.nodes[0].drop_gi_partition("ghost")


# -------------------------------------------------------- sqlite atomic


def test_sqlite_atomic_commits_across_nodes():
    from repro.backends.sqlite_cluster import SQLiteCluster

    with SQLiteCluster(num_nodes=3) as db:
        db.create_table(Schema.of("T", "k", "v"), partitioned_on="k")
        with db.atomic():
            db.insert("T", [(i, i) for i in range(12)])
        assert db.count("T") == 12


def test_sqlite_atomic_rolls_back_every_node():
    from repro.backends.sqlite_cluster import SQLiteCluster

    with SQLiteCluster(num_nodes=3) as db:
        db.create_table(Schema.of("T", "k", "v"), partitioned_on="k")
        db.insert("T", [(0, 0)])
        with pytest.raises(KeyError):
            with db.atomic():
                db.insert("T", [(i, i) for i in range(1, 12)])
                db.delete("T", [(99, 99)])  # not stored: fails mid-scope
        # Every node rolled back; only the pre-scope row survives.
        assert db.count("T") == 1
        assert not any(node.defer_commits for node in db.nodes)
