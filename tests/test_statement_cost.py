"""Statement cost is O(delta): oracles for the two things that make it so.

* **Incremental planner statistics** are compared with a from-scratch
  recomputation (scan every fragment, count) after every step of random
  DML / rollback / membership scripts, for all three methods.
* **Located deletes** are compared with a reference locator that does what
  the seed engine did — search again for every single delete — plus pinned
  seed ledgers on a fixed script, and *counted* (never timed) scans: a
  warmed-up statement must not walk a relation, whatever its size.
"""

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Cluster, HashPartitioning, Schema, two_way_view
from repro.core import BoundView, MaintenanceMethod
from repro.core.optimizer import MaintenancePlanner
from repro.core.view import JoinCondition, JoinViewDefinition
from repro.faults import ConsistencyAuditor, FaultPlan, attach_faults
from repro.storage import HeapTable, IndexedHeap
from repro.workloads.tpcr import (
    TpcrGenerator,
    jv1_definition,
    jv2_definition,
    load_into,
)

METHODS = ("naive", "auxiliary", "global_index")

A = Schema.of("A", "a", "c", "e")
B = Schema.of("B", "b", "d", "f")
K = Schema.of("K", "k", "v")


def build(method, num_nodes=3):
    """A ⋈ B under ``method`` plus K, partitioned on its indexed column."""
    cluster = Cluster(num_nodes=num_nodes)
    cluster.create_relation(A, partitioned_on="a")
    cluster.create_relation(B, partitioned_on="b")
    cluster.create_relation(K, partitioned_on="k", indexes=[("k", True)])
    cluster.insert("B", [(i, i % 4, f"f{i}") for i in range(12)])
    cluster.create_join_view(
        two_way_view("JV", "A", "c", "B", "d", partitioning=HashPartitioning("e")),
        method=method, strategy="inl",
    )
    return cluster


# ======================================================= statistics oracle


def assert_statistics_exact(cluster):
    """Every column of every relation: incremental == recomputed."""
    for name, info in cluster.catalog.relations.items():
        rows = cluster.scan_relation(name)
        expected = {
            column: len({row[position] for row in rows})
            for position, column in enumerate(info.schema.column_names)
        }
        stats = cluster.statistics.for_relation(name)
        assert stats.rows == len(rows), name
        assert stats.distinct == expected, name
        for column, distinct in expected.items():
            fanout = len(rows) / distinct if rows else 0.0
            assert cluster.statistics.fanout(name, column) == fanout


_step = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from("ABK"), st.integers(0, 5),
              st.integers(1, 4)),
    st.tuples(st.just("delete"), st.sampled_from("ABK"), st.integers(0, 40),
              st.integers(1, 3)),
    st.tuples(st.just("update"), st.sampled_from("ABK"), st.integers(0, 40),
              st.integers(0, 5)),
    st.tuples(st.just("rollback"), st.sampled_from("ABK"), st.integers(0, 40),
              st.integers(0, 5)),
    st.tuples(st.just("add_node"), st.just(""), st.just(0), st.just(0)),
    st.tuples(st.just("remove_node"), st.just(""), st.integers(0, 9), st.just(0)),
    st.tuples(st.just("replicate"), st.just(""), st.just(0), st.just(0)),
)


def _run_script(cluster, script):
    """Apply ``script`` through the public API, checking the statistics
    against the recomputation after every step."""
    serial = 1000
    live = {name: list(cluster.scan_relation(name)) for name in "ABK"}

    def fresh(name, key):
        nonlocal serial
        serial += 1
        return (serial, key) if name == "K" else (serial, key, f"s{serial}")

    assert_statistics_exact(cluster)  # tracks every column from here on
    for kind, name, index, arg in script:
        rows = live.get(name)
        if kind == "insert":
            new = [fresh(name, index) for _ in range(arg)]
            new.append(new[0])  # a duplicate row, same home
            cluster.insert(name, new)
            rows.extend(new)
        elif kind == "delete" and rows:
            victims = [rows.pop(index % len(rows)) for _ in range(min(arg, len(rows)))]
            cluster.delete(name, victims)
        elif kind == "update" and rows:
            old = rows.pop(index % len(rows))
            new = (old[0], arg) + old[2:]
            cluster.update(name, [(old, new)])
            rows.append(new)
        elif kind == "rollback":
            with cluster.transaction() as txn:
                txn.insert(name, [fresh(name, arg), fresh(name, arg)])
                if len(rows) >= 2:
                    old, other = rows[index % len(rows)], rows[(index + 1) % len(rows)]
                    txn.delete(name, [old])
                    if other != old:
                        txn.update(name, [(other, (other[0], arg) + other[2:])])
                txn.rollback()
        elif kind == "add_node" and cluster.num_nodes < 5:
            cluster.add_node()
        elif kind == "remove_node" and cluster.num_nodes > 2:
            cluster.remove_node(index % cluster.num_nodes)
        elif kind == "replicate" and cluster.replicator is None:
            cluster.enable_replication(k=2)
        assert_statistics_exact(cluster)
    return live


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=st.lists(_step, max_size=18))
def test_incremental_statistics_equal_recomputation(method, script):
    cluster = build(method)
    live = _run_script(cluster, script)
    for name, rows in live.items():
        assert Counter(cluster.scan_relation(name)) == Counter(rows)
    assert ConsistencyAuditor(cluster).audit().ok


@pytest.mark.parametrize("method", METHODS)
def test_statistics_survive_failover(method):
    """A failed-over node's rows vanish without a delete: the counters drop
    its fragment, and the restored copies arrive as observed inserts."""
    cluster = build(method, num_nodes=4)
    cluster.insert("A", [(i, i % 5, f"e{i}") for i in range(16)])
    cluster.insert("K", [(i, i % 3) for i in range(16)])
    cluster.enable_replication(k=2)
    assert_statistics_exact(cluster)
    attach_faults(
        cluster, plan=FaultPlan().crash(node=2, after_messages=2), seed=11
    )
    cluster.insert("A", [(50 + i, i % 5, "mid") for i in range(8)])
    assert cluster.faults.injector.is_down(2)
    cluster.fail_over(2)
    assert cluster.num_nodes == 3
    assert_statistics_exact(cluster)
    # The lost rows live again elsewhere; deleting them must drop their
    # values (a stale multiplicity from the dead fragment would not).
    cluster.delete("A", cluster.scan_relation("A"))
    cluster.delete("K", cluster.scan_relation("K")[::2])
    assert_statistics_exact(cluster)


def test_statistics_track_only_what_was_asked():
    """No counter exists until a planner prices a column, and none ever for
    a column a partitioned structure already covers."""
    cluster = build("auxiliary")
    cluster.insert("A", [(i, i % 4, f"e{i}") for i in range(8)])
    statistics = cluster.statistics
    assert statistics._counters == {}  # two-way view: one order, no pricing
    assert statistics.distinct("B", "d") == 4    # AR_B_d's clustered index
    assert statistics.distinct("K", "k") == 0    # co-partitioned local index
    assert statistics._counters == {}
    assert statistics.distinct("B", "f") == 12   # nothing covers B.f
    assert set(statistics._counters) == {("B", "f")}
    assert all(
        len(node.fragment("B").observers) == 1 and not node.fragment("A").observers
        for node in cluster.nodes
    )


# ======================================================== located deletes


def reference_locate(fragment, deletes):
    """What the seed engine did: one fresh search per delete, skipping the
    rowids earlier deletes of the statement already took."""
    taken, chosen = set(), []
    index = fragment.locating_index()
    for row in deletes:
        if index is not None:
            candidates = (
                (rowid, fragment.table.fetch(rowid))
                for rowid in index.search(index.key_of(row))
            )
        else:
            candidates = fragment.table.scan()
        victim = next(
            (rowid for rowid, stored in candidates
             if rowid not in taken and stored == row),
            None,
        )
        chosen.append(victim)
        taken.add(victim)
    return chosen


@pytest.mark.parametrize("indexed", [False, True], ids=["heap", "indexed"])
@pytest.mark.parametrize("seed", range(8))
def test_locate_picks_the_rowids_sequential_deletes_would(indexed, seed):
    """Two fragments take the same writes.  Indexed, both locate through
    the index; bare, ``early`` attaches its row locator before the churn
    (so every mutation entry point must keep it in heap order) and
    ``late`` builds it after."""
    rng = random.Random(seed)
    early, late = fragments = [
        IndexedHeap(HeapTable(Schema.of("T", "k", "v"))) for _ in range(2)
    ]

    def apply(operation, *args):
        results = [getattr(fragment, operation)(*args) for fragment in fragments]
        assert results[0] == results[1]
        return results[0]

    if indexed:
        for fragment in fragments:
            fragment.create_index("k")
    for _ in range(60):
        apply("insert", (rng.randrange(4), rng.randrange(3)))
    if not indexed:
        early.locate({})
        assert early.locating_index() is None
    # Rollback-style churn: restored rows re-enter at the *end* of the heap
    # and of their index entry, so rowid order and search order differ.
    for rowid in rng.sample(range(60), 20):
        apply("restore", rowid, apply("delete", rowid))
    # Duplicates of stored rows in bulk, then a bulk insert undone.
    apply("insert_many", rng.sample(early.table.rows(), 15))
    undone = apply("insert_many", [(rng.randrange(4), 0) for _ in range(10)])
    apply("delete_many", undone)
    for rowid in rng.sample(sorted(dict(early.table.scan())), 10):
        apply("restore", rowid, apply("delete", rowid))
    stored = early.table.rows()
    deletes = rng.sample(stored, 25) + [(9, 9), (9, 9)]
    rng.shuffle(deletes)
    for fragment in fragments:
        expected = reference_locate(fragment, deletes)
        located = fragment.locate(Counter(deletes))
        supply = {row: list(rowids) for row, rowids in located.items()}
        got = [supply[row].pop(0) if supply.get(row) else None for row in deletes]
        assert got == expected
        assert located.get((9, 9), []) == []


@pytest.mark.parametrize("method", METHODS)
def test_duplicate_rows_lose_their_earliest_copies(method):
    """Naive indexes A.c (victims come through the index); AR and GI leave
    A's fragments un-indexed (one heap pass).  Either way the k deletes of
    a row stored n times remove its first k rowids, and every GI entry
    still resolves to a row carrying its key."""
    cluster = build(method)
    copies = [(7, 1, "dup")] * 5
    cluster.insert("A", [(3, 1, "x"), *copies[:2], (6, 2, "y"), *copies[2:]])
    home = cluster.catalog.relation("A").partitioner.node_of_row(copies[0])
    fragment = cluster.nodes[home].fragment("A")
    assert (fragment.locating_index() is not None) == (method == "naive")
    before = [rowid for rowid, row in fragment.table.scan() if row == copies[0]]
    cluster.delete("A", copies[:3])
    after = [rowid for rowid, row in fragment.table.scan() if row == copies[0]]
    assert after == before[3:]
    for gi in cluster.catalog.global_indexes.values():
        for node in cluster.nodes:
            for key, grid in node.gi_partition(gi.name).entries():
                row = cluster.nodes[grid.node].fragment(gi.base).table.fetch(grid.rowid)
                assert row[gi.key_position] == key
    assert ConsistencyAuditor(cluster).audit().ok


@pytest.mark.parametrize("method", METHODS)
def test_undersupplied_delete_raises_before_any_mutation(method):
    cluster = build(method)
    cluster.insert("A", [(7, 1, "dup"), (7, 1, "dup"), (3, 2, "x")])
    cells = cluster.ledger.snapshot().cells
    contents = {
        name: [list(node.fragment(name).table.scan()) for node in cluster.nodes]
        for name in ("A", "JV")
    }
    with pytest.raises(KeyError, match=r"cannot delete 3 instance\(s\).*holds 2"):
        cluster.delete("A", [(3, 2, "x"), (7, 1, "dup"), (7, 1, "dup"), (7, 1, "dup")])
    assert cluster.ledger.snapshot().cells == cells
    assert contents == {
        name: [list(node.fragment(name).table.scan()) for node in cluster.nodes]
        for name in ("A", "JV")
    }
    assert cluster.statistics.rows("A") == 3


#: Ledger cells of :func:`_fixed_script` at the seed commit (2b9e6a5), where
#: every delete was searched for twice: ``(node, op, tag, count)``, sorted.
SEED_CELLS = {
    "naive": [
        (0, "fetch", "maintain", 23.0), (0, "insert", "base", 8.0),
        (0, "insert", "view", 33.0), (0, "search", "base", 2.0),
        (0, "search", "maintain", 24.0), (0, "search", "view", 16.0),
        (0, "send", "maintain", 12.0), (0, "send", "view", 10.0),
        (1, "fetch", "maintain", 23.0), (1, "insert", "base", 17.0),
        (1, "insert", "view", 33.0), (1, "search", "base", 5.0),
        (1, "search", "maintain", 24.0), (1, "search", "view", 13.0),
        (1, "send", "maintain", 39.0), (1, "send", "view", 10.0),
        (2, "fetch", "maintain", 20.0), (2, "insert", "base", 11.0),
        (2, "search", "base", 4.0), (2, "search", "maintain", 24.0),
        (2, "send", "maintain", 21.0), (2, "send", "view", 20.0),
    ],
    "auxiliary": [
        (0, "insert", "base", 8.0), (0, "insert", "maintain", 3.0),
        (0, "insert", "view", 33.0), (0, "search", "maintain", 5.0),
        (0, "search", "view", 16.0), (0, "send", "maintain", 2.0),
        (1, "insert", "base", 17.0), (1, "insert", "maintain", 15.0),
        (1, "insert", "view", 33.0), (1, "search", "maintain", 21.0),
        (1, "search", "view", 13.0), (1, "send", "maintain", 2.0),
        (1, "send", "view", 12.0), (2, "insert", "base", 11.0),
        (2, "insert", "maintain", 6.0), (2, "search", "maintain", 9.0),
        (2, "send", "maintain", 4.0), (2, "send", "view", 18.0),
    ],
    "global_index": [
        (0, "fetch", "maintain", 23.0), (0, "insert", "base", 8.0),
        (0, "insert", "maintain", 3.0), (0, "insert", "view", 33.0),
        (0, "search", "maintain", 3.0), (0, "search", "view", 16.0),
        (0, "send", "maintain", 6.0), (0, "send", "view", 10.0),
        (1, "fetch", "maintain", 23.0), (1, "insert", "base", 17.0),
        (1, "insert", "maintain", 15.0), (1, "insert", "view", 33.0),
        (1, "search", "maintain", 15.0), (1, "search", "view", 13.0),
        (1, "send", "maintain", 29.0), (1, "send", "view", 10.0),
        (2, "fetch", "maintain", 20.0), (2, "insert", "base", 11.0),
        (2, "insert", "maintain", 6.0), (2, "search", "maintain", 6.0),
        (2, "send", "maintain", 16.0), (2, "send", "view", 20.0),
    ],
}

#: Surviving ``(rowid, row)`` per node of A and B after the script, at the
#: seed commit (identical under all three methods).
SEED_SURVIVORS = {
    "A": [[(1, (3, 1, "y"))], [(3, (1, 2, "x"))], []],
    "B": [
        [(1, (3, 3, "f3")), (2, (6, 2, "f6")), (3, (9, 1, "f9"))],
        [(0, (1, 1, "f1")), (1, (4, 0, "f4")), (2, (7, 3, "f7")),
         (3, (10, 2, "f10")), (5, (100, 1, "g"))],
        [(0, (2, 2, "f2")), (1, (5, 1, "f5")), (2, (8, 0, "f8")),
         (3, (11, 3, "f11"))],
    ],
}


def _fixed_script(method):
    """Duplicates, bulk and per-tuple (transactional) deletes, updates and a
    rollback — every delete path, on indexed and un-indexed fragments."""
    cluster = Cluster(num_nodes=3)
    cluster.create_relation(A, partitioned_on="a")
    cluster.create_relation(B, partitioned_on="b")
    cluster.insert("B", [(i, i % 4, f"f{i}") for i in range(12)])
    cluster.create_join_view(
        two_way_view("JV", "A", "c", "B", "d", partitioning=HashPartitioning("e")),
        method=method, strategy="inl",
    )
    cluster.insert("A", [(1, 1, "x"), (1, 1, "x"), (1, 1, "x"), (2, 1, "y"),
                         (5, 2, "z"), (5, 2, "z"), (9, 3, "w")])
    cluster.delete("A", [(1, 1, "x"), (5, 2, "z"), (1, 1, "x")])
    cluster.update("A", [((1, 1, "x"), (1, 2, "x")), ((2, 1, "y"), (3, 1, "y"))])
    cluster.insert("B", [(100, 1, "g"), (100, 1, "g")])
    cluster.delete("B", [(100, 1, "g"), (0, 0, "f0")])
    with cluster.transaction() as txn:
        txn.insert("A", [(7, 1, "t"), (7, 1, "t")])
        txn.delete("A", [(5, 2, "z"), (7, 1, "t")])
        txn.rollback()
    cluster.delete("A", [(9, 3, "w"), (5, 2, "z")])
    return cluster


@pytest.mark.parametrize("method", METHODS)
def test_fixed_script_charges_and_places_exactly_as_the_seed(method):
    cluster = _fixed_script(method)
    cells = sorted(
        (node, op.value, tag.value, count)
        for (node, op, tag), count in cluster.ledger.snapshot().cells.items()
    )
    assert cells == SEED_CELLS[method]
    for name, expected in SEED_SURVIVORS.items():
        assert [
            sorted(node.fragment(name).table.scan()) for node in cluster.nodes
        ] == expected
    assert ConsistencyAuditor(cluster).audit().ok


# ============================================== counted scans (no timing)


@pytest.fixture
def scans(monkeypatch):
    """Count every way of walking a heap or a relation, by table name."""
    counts = Counter()

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            counts[key(self, *args)] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for walker in ("scan", "__iter__", "rows"):
        counted(HeapTable, walker, lambda table: table.schema.name)
    counted(Cluster, "scan_relation", lambda cluster, name: f"scan_relation:{name}")
    return counts


@pytest.mark.parametrize("method", METHODS)
def test_warmed_up_tpcr_orders_insert_scans_nothing(method, scans):
    """The three-way JV2 has two hop orders for an orders delta, so every
    cardinality change re-prices them — from O(1) statistics, not scans."""
    generator = TpcrGenerator(scale=0.002)
    dataset = generator.generate()
    cluster = Cluster(num_nodes=4)
    load_into(cluster, dataset)
    for definition in (jv1_definition(), jv2_definition()):
        cluster.create_join_view(definition, method=method, strategy="inl")
    orderkey = len(dataset.orders)

    def orders(count):
        nonlocal orderkey
        rows = [(orderkey + i, i % 50, 1000.0 + i, "O") for i in range(count)]
        orderkey += count
        return rows

    cluster.insert("orders", orders(16))  # warm-up: tracks what pricing asks
    for size in (16, 128):
        scans.clear()
        cluster.insert("orders", orders(size))
        assert not scans, dict(scans)
    assert ConsistencyAuditor(cluster).audit().ok


@pytest.mark.parametrize("size", [8, 64])
def test_indexed_fragment_delete_scans_nothing(size, scans):
    cluster = build("naive")  # naive maintenance indexes A.c on every node
    rows = [(i, i % 4, f"e{i}") for i in range(200)]
    cluster.insert("A", rows)
    scans.clear()
    cluster.delete("A", rows[:size])
    assert not scans, dict(scans)


@pytest.mark.parametrize("method", ["auxiliary", "global_index"])
@pytest.mark.parametrize("size", [2, 8, 64])
def test_unindexed_fragment_delete_scans_each_home_fragment_once(method, size, scans):
    cluster = build(method)  # AR / GI maintenance leaves A's fragments bare
    rows = [(i, i % 4, f"e{i}") for i in range(200)]
    cluster.insert("A", rows)
    victims = rows[:size] + rows[:1]  # not stored twice: must still raise
    scans.clear()
    with pytest.raises(KeyError):
        cluster.delete("A", victims)
    homes = {cluster.catalog.relation("A").partitioner.node_of_row(r) for r in victims}
    # The first locate on a bare fragment attaches its row locator: one pass.
    assert set(scans) <= {"A"} and scans["A"] <= len(homes), dict(scans)
    scans.clear()
    cluster.delete("A", rows[:size])
    assert not scans, dict(scans)


class CountedRow(tuple):
    """A row that counts the ``==`` comparisons it takes part in."""

    comparisons = 0

    def __eq__(self, other):
        CountedRow.comparisons += 1
        return tuple.__eq__(self, other)

    __hash__ = tuple.__hash__


def _warm_delete_work(method, size, monkeypatch):
    """Heap walks, fetches and row comparisons of a warmed-up 8-row
    delete from A holding ``size`` rows (at most four per A.c key)."""
    cluster = build(method)
    rows = [CountedRow((i, i // 4, f"e{i}")) for i in range(size)]
    cluster.insert("A", rows)
    cluster.delete("A", [CountedRow(row) for row in rows[8:16]])  # warm-up
    work = Counter()

    def counted(name):
        original = getattr(HeapTable, name)

        def wrapper(self, *args):
            work[name] += 1
            return original(self, *args)

        monkeypatch.setattr(HeapTable, name, wrapper)

    for name in ("fetch", "scan", "__iter__", "rows"):
        counted(name)
    CountedRow.comparisons = 0
    cluster.delete("A", [CountedRow(row) for row in rows[:8]])
    work["row __eq__"] = CountedRow.comparisons
    monkeypatch.undo()
    assert ConsistencyAuditor(cluster).audit().ok
    return work


@pytest.mark.parametrize("method", METHODS)
def test_warm_delete_work_does_not_grow_with_the_relation(method, monkeypatch):
    """ROADMAP item 4's count test: the same 8-row delete walks no heap
    and does equal fetches and row comparisons at |A| = 2k and 20k."""
    small = _warm_delete_work(method, 2_000, monkeypatch)
    large = _warm_delete_work(method, 20_000, monkeypatch)
    assert small == large
    assert not any(small[walker] for walker in ("scan", "__iter__", "rows"))
    assert small["fetch"] > 0 and small["row __eq__"] > 0  # counters bite


# ========================================================= bounded caches


def test_planner_caches_stay_bounded_over_a_thousand_statements():
    """Three-relation view, 1,000 cardinality-changing statements: every
    statement re-plans (the signature moved), none leaves an entry behind."""
    x = Schema.of("X", "x", "y", "px")
    y = Schema.of("Y", "y2", "z", "py")
    z = Schema.of("Z", "z2", "w", "pz")
    definition = JoinViewDefinition(
        "XYZ", ("X", "Y", "Z"),
        (JoinCondition("X", "y", "Y", "y2"), JoinCondition("Y", "z", "Z", "z2")),
        partitioning=HashPartitioning("px"),
    )
    cluster = Cluster(num_nodes=3)
    for schema, column in ((x, "px"), (y, "py"), (z, "pz")):
        cluster.create_relation(schema, partitioned_on=column)
    view = cluster.create_join_view(definition, method="global_index", strategy="inl")
    planner = view.maintainer.planner
    seen = set()
    for step in range(1000):
        name = "XYZ"[step % 3]
        cluster.insert(name, [(step % 7, step % 5, step)])
        seen.add(planner._signature_key())
    assert len(seen) == 1000
    relations = len(definition.relations)
    assert len(planner._plan_cache) <= relations
    assert len(planner._compiled_cache) <= relations
    assert len(planner._order_counts) <= relations
    statistics = cluster.statistics
    columns = sum(len(s.column_names) for s in (x, y, z))
    assert len(statistics._counters) <= columns
    assert len(statistics._snapshots) <= relations
    assert len(cluster._compiled_join_cache) <= 2 * relations
    assert ConsistencyAuditor(cluster).audit().ok


def test_replanning_follows_the_data_without_a_scan(scans):
    """§2.2's optimization problem, live: the cheaper first hop flips as the
    fan-outs move, and the planner notices from the counters alone."""
    a = Schema.of("A", "x", "y", "pa")
    b = Schema.of("B", "y2", "z", "pb")
    c = Schema.of("C", "z2", "x2", "pc")
    definition = JoinViewDefinition(
        "TRI", ("A", "B", "C"),
        (
            JoinCondition("A", "y", "B", "y2"),
            JoinCondition("B", "z", "C", "z2"),
            JoinCondition("C", "x2", "A", "x"),
        ),
    )
    cluster = Cluster(4)
    for schema, column in ((a, "pa"), (b, "pb"), (c, "pc")):
        cluster.create_relation(schema, partitioned_on=column)
    cluster.insert("B", [(1, i, i) for i in range(20)])   # fan-out 20 on y2
    cluster.insert("C", [(i, i, i) for i in range(20)])   # fan-out 1 on x2
    for base, column in (("B", "y2"), ("B", "z"), ("C", "z2"), ("C", "x2"),
                         ("A", "y"), ("A", "x")):
        cluster.create_auxiliary_relation(base, column)
    planner = MaintenancePlanner(
        cluster, BoundView(definition, {"A": a, "B": b, "C": c}),
        MaintenanceMethod.AUXILIARY,
    )
    assert planner.plan_for("A").hops[0].partner == "C"
    cluster.insert("C", [(100 + i, 100 + i, 0) for i in range(400)])  # x2=0: 400
    cluster.delete("B", [(1, i, i) for i in range(1, 20)])            # y2: 1
    scans.clear()
    assert planner.plan_for("A").hops[0].partner == "B"
    assert not scans, dict(scans)
