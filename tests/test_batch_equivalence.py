"""Batched engine ↔ tuple-at-a-time reference engine equivalence.

ISSUE 2's acceptance bar: for random multi-statement workloads (including
fault plans) the batched delta-execution engine must produce byte-identical
ledger cells, network statistics, and view contents (per fragment, in
fragment order) compared to a cluster that differs *only* in
``batch_execution=False``.

The ledger cells are commutative sums of integer counts, so "bit-identical"
is exact equality, not approximate: any grouping bug shows up as a failed
``==`` on the raw cell dicts.
"""

import random

import pytest

from repro import Cluster, HashPartitioning, Schema, two_way_view
from repro.cluster.partitioning import RoundRobinPartitioning
from repro.core.deferred import defer_view
from repro.core.view import JoinCondition, JoinViewDefinition
from repro.faults import FaultPlan, attach_faults
from tests.conftest import assert_equivalent, run_ops

METHODS = ("naive", "auxiliary", "global_index", "hybrid")
STRATEGIES = ("inl", "sort_merge", "auto")


def _build(method, strategy, batch, partitioning=None, num_nodes=4):
    cluster = Cluster(num_nodes=num_nodes, batch_execution=batch)
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    cluster.insert("B", [(i, i % 5, f"f{i}") for i in range(20)])
    cluster.create_join_view(
        two_way_view(
            "JV", "A", "c", "B", "d",
            partitioning=partitioning or HashPartitioning("e"),
        ),
        method=method,
        strategy=strategy,
    )
    return cluster


def _script(seed, steps=40, keys=7):
    """A deterministic random script of inserts/deletes/updates on A and B."""
    rng = random.Random(seed)
    ops = []
    serial = 0
    live = {"A": [], "B": []}
    for _ in range(steps):
        kind = rng.choice(("ins", "ins", "ins", "del", "upd", "multi"))
        rel = rng.choice(("A", "B"))
        if kind == "ins":
            row = (1000 + serial, rng.randrange(keys), serial)
            serial += 1
            live[rel].append(row)
            ops.append(("insert", rel, [row]))
        elif kind == "multi":
            rows = []
            for _ in range(rng.randrange(2, 6)):
                rows.append((1000 + serial, rng.randrange(keys), serial))
                serial += 1
            live[rel].extend(rows)
            ops.append(("insert", rel, rows))
        elif kind == "del" and live[rel]:
            row = live[rel].pop(rng.randrange(len(live[rel])))
            ops.append(("delete", rel, [row]))
        elif kind == "upd" and live[rel]:
            old = live[rel].pop(rng.randrange(len(live[rel])))
            new = (1000 + serial, rng.randrange(keys), serial)
            serial += 1
            live[rel].append(new)
            ops.append(("update", rel, [(old, new)]))
    return ops


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_two_way_equivalence(method, strategy):
    ops = _script(seed=hash((method, strategy)) % 10_000)
    batched = _build(method, strategy, batch=True)
    reference = _build(method, strategy, batch=False)
    run_ops(batched, ops)
    run_ops(reference, ops)
    names = ["A", "B", "JV", *batched.catalog.auxiliaries]
    assert_equivalent(batched, reference, names)


@pytest.mark.parametrize("method", ("naive", "auxiliary", "global_index"))
def test_round_robin_view_equivalence(method):
    """Round-robin views exercise the stateful placement + per-row delete
    search paths."""
    ops = _script(seed=11, steps=30)
    batched = _build(method, "inl", True, partitioning=RoundRobinPartitioning())
    reference = _build(method, "inl", False, partitioning=RoundRobinPartitioning())
    run_ops(batched, ops)
    run_ops(reference, ops)
    assert_equivalent(batched, reference, ["A", "B", "JV"])


@pytest.mark.parametrize("method", ("auxiliary", "global_index"))
def test_triangle_multiway_equivalence(method):
    """A cyclic three-relation view exercises extra-filter hops and the
    multiway replanning path."""
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

    def build(batch):
        cluster = Cluster(num_nodes=3, batch_execution=batch)
        cluster.create_relation(a, partitioned_on="pa")
        cluster.create_relation(b, partitioned_on="pb")
        cluster.create_relation(c, partitioned_on="pc")
        cluster.insert("B", [(i % 4, i % 3, i) for i in range(12)])
        cluster.insert("C", [(i % 3, i % 4, i) for i in range(12)])
        cluster.create_join_view(definition, method=method)
        return cluster

    rng = random.Random(5)
    ops = []
    for i in range(15):
        ops.append(("insert", "A", [(rng.randrange(4), rng.randrange(4), i)]))
    batched, reference = build(True), build(False)
    run_ops(batched, ops)
    run_ops(reference, ops)
    names = ["A", "B", "C", "TRI", *batched.catalog.auxiliaries]
    assert_equivalent(batched, reference, names)


@pytest.mark.parametrize("method", ("naive", "auxiliary", "global_index"))
def test_deferred_refresh_equivalence(method):
    """Deferred queues net, then flush through the batch path; refresh
    charges must match the reference engine's."""

    def run(batch):
        cluster = _build(method, "auto", batch)
        wrapper = defer_view(cluster, "JV", flush_threshold=None)
        for i in range(25):
            cluster.insert("A", [(2000 + i, i % 5, i)])
        # Net away a few (delete rows just inserted).
        for i in range(0, 10, 2):
            cluster.delete("A", [(2000 + i, i % 5, i)])
        report = wrapper.refresh()
        return cluster, report

    batched, report_b = run(True)
    reference, report_r = run(False)
    assert (
        report_b.flushed_inserts,
        report_b.flushed_deletes,
        report_b.netted_away,
        report_b.statements_absorbed,
    ) == (
        report_r.flushed_inserts,
        report_r.flushed_deletes,
        report_r.netted_away,
        report_r.statements_absorbed,
    )
    assert_equivalent(batched, reference, ["A", "B", "JV"])


@pytest.mark.parametrize(
    "plan_name", ("message_drop", "message_duplication", "probe_failure")
)
def test_fault_plan_equivalence(plan_name):
    """With a fault controller attached, both modes route through the
    reference path (injector answers are call-sequence-keyed), so ledger,
    stats, and contents stay identical under identical seeds."""
    plans = FaultPlan.single_fault_schedules()

    def run(batch):
        cluster = _build("auxiliary", "inl", batch)
        attach_faults(cluster, plan=plans[plan_name].scaled(3.0), seed=7)
        run_ops(cluster, _script(seed=3, steps=20))
        return cluster

    batched = run(True)
    reference = run(False)
    names = ["A", "B", "JV", *batched.catalog.auxiliaries]
    assert_equivalent(batched, reference, names)


def test_detached_faults_reenable_batch_path():
    """After detach_faults the fast path resumes and equivalence holds for
    subsequent statements."""
    from repro.faults import detach_faults

    def run(batch):
        cluster = _build("auxiliary", "inl", batch)
        attach_faults(cluster, plan=FaultPlan(), seed=1)
        cluster.insert("A", [(1, 1, 1)])
        detach_faults(cluster)
        cluster.insert("A", [(2, 2, 2), (3, 3, 3), (4, 1, 4)])
        return cluster

    assert_equivalent(run(True), run(False), ["A", "B", "JV"])


def test_ddl_invalidates_compiled_plans():
    """Creating a new structure mid-stream must invalidate cached compiled
    plans: the batched engine picks up the new access path exactly when the
    reference engine does."""

    def run(batch):
        cluster = Cluster(num_nodes=4, batch_execution=batch)
        cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
        cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
        cluster.insert("B", [(i, i % 5, f"f{i}") for i in range(20)])
        cluster.create_join_view(
            two_way_view("JV", "A", "c", "B", "d",
                         partitioning=HashPartitioning("e")),
            method="hybrid",
        )
        cluster.insert("A", [(1, 1, 1)])
        # New AR appears: hybrid should switch from its previous access
        # path; the cached compiled plan must be dropped in both modes.
        if cluster.catalog.find_auxiliary("B", "d") is None:
            cluster.create_auxiliary_relation("B", "d")
        cluster.insert("A", [(2, 1, 2)])
        return cluster

    batched, reference = run(True), run(False)
    names = ["A", "B", "JV", *batched.catalog.auxiliaries]
    assert_equivalent(batched, reference, names)


def test_large_skewed_transaction_equivalence():
    """The headline benchmark shape: one big transaction with heavy key
    skew (the probe memo's target case)."""
    rng = random.Random(9)
    rows = [(5000 + i, rng.choice((0, 0, 0, 1, 2)), i) for i in range(300)]
    for method in ("naive", "auxiliary", "global_index"):
        batched = _build(method, "inl", True)
        reference = _build(method, "inl", False)
        batched.insert("A", rows)
        reference.insert("A", rows)
        names = ["A", "B", "JV", *batched.catalog.auxiliaries]
        assert_equivalent(batched, reference, names)
