"""Tests for the SQLite parallel backend (cluster + maintenance rig)."""

from collections import Counter

import pytest

from repro.backends import SQLiteCluster, TeradataStyleExperiment
from repro.storage.schema import Schema

R = Schema.of("R", "k", "v", kinds=(int, str))


@pytest.fixture
def sqlite_cluster():
    with SQLiteCluster(4) as cluster:
        yield cluster


def test_create_and_load_partitions(sqlite_cluster):
    sqlite_cluster.create_table(R, partitioned_on="k")
    sqlite_cluster.load("R", [(i, f"v{i}") for i in range(20)])
    assert sqlite_cluster.count("R") == 20
    # Every stored row sits on the node its partitioning key maps to.
    for node in sqlite_cluster.nodes:
        for key, _value in node.query("SELECT k, v FROM R"):
            assert sqlite_cluster.node_of_key(key) == node.node_id
    assert sqlite_cluster.fragment_counts("R") == [5, 5, 5, 5]


def test_duplicate_table_rejected(sqlite_cluster):
    sqlite_cluster.create_table(R, partitioned_on="k")
    with pytest.raises(ValueError):
        sqlite_cluster.create_table(R, partitioned_on="k")


def test_unknown_table_rejected(sqlite_cluster):
    with pytest.raises(KeyError):
        sqlite_cluster.load("nope", [])


def test_clustered_table_roundtrip(sqlite_cluster):
    sqlite_cluster.create_table(R, partitioned_on="k", clustered=True)
    rows = [(1, "a"), (1, "b"), (5, "c")]
    sqlite_cluster.load("R", rows)
    assert Counter(sqlite_cluster.all_rows("R")) == Counter(rows)
    # The hidden _seq column is not exposed through reads.
    assert all(len(row) == 2 for row in sqlite_cluster.all_rows("R"))


def test_clustered_table_physical_order(sqlite_cluster):
    sqlite_cluster.create_table(R, partitioned_on="k", clustered=True)
    sqlite_cluster.load("R", [(8, "x"), (0, "y"), (4, "z")])
    node = sqlite_cluster.nodes[0]  # keys 0,4,8 all hash to node 0
    stored = node.query("SELECT k FROM R")
    assert [k for (k,) in stored] == [0, 4, 8]


def test_delete_one_instance(sqlite_cluster):
    sqlite_cluster.create_table(R, partitioned_on="k")
    sqlite_cluster.load("R", [(1, "a"), (1, "a")])
    sqlite_cluster.delete("R", [(1, "a")])
    assert sqlite_cluster.count("R") == 1
    with pytest.raises(KeyError):
        sqlite_cluster.delete("R", [(9, "none")])


def test_delete_from_clustered_table(sqlite_cluster):
    sqlite_cluster.create_table(R, partitioned_on="k", clustered=True)
    sqlite_cluster.load("R", [(1, "a"), (1, "a"), (2, "b")])
    sqlite_cluster.delete("R", [(1, "a")])
    assert sqlite_cluster.count("R") == 2


def test_batched_delete_duplicates_claim_distinct_copies(sqlite_cluster):
    """One executemany per node must still consume one stored copy per
    requested duplicate, like the old per-row loop."""
    sqlite_cluster.create_table(R, partitioned_on="k")
    sqlite_cluster.load("R", [(1, "a"), (1, "a"), (1, "a"), (2, "b")])
    sqlite_cluster.delete("R", [(1, "a"), (1, "a")])
    assert Counter(sqlite_cluster.all_rows("R")) == Counter([(1, "a"), (2, "b")])
    # Over-deleting fails before any row of the statement is removed.
    with pytest.raises(KeyError):
        sqlite_cluster.delete("R", [(1, "a"), (1, "a")])
    assert sqlite_cluster.count("R") == 2


def test_atomic_scope_commits_bulk_writes_once(sqlite_cluster):
    sqlite_cluster.create_table(R, partitioned_on="k")
    with sqlite_cluster.atomic():
        sqlite_cluster.load("R", [(i, f"v{i}") for i in range(10)])
        sqlite_cluster.delete("R", [(0, "v0")])
    assert sqlite_cluster.count("R") == 9
    # A failing scope rolls every node back.
    with pytest.raises(RuntimeError):
        with sqlite_cluster.atomic():
            sqlite_cluster.load("R", [(100, "boom")])
            raise RuntimeError("abort")
    assert sqlite_cluster.count("R") == 9


def test_maintain_jv1_insert_is_atomic_across_nodes():
    """The full-maintenance path wraps base insert + view delta in one
    transaction; contents still match a recompute afterwards."""
    with TeradataStyleExperiment(num_nodes=2, scale=0.001) as experiment:
        experiment.materialize_jv1()
        before = experiment.cluster.count("jv1")
        delta = experiment.new_delta(5)
        experiment.maintain_jv1_insert(delta, "auxiliary")
        assert experiment.cluster.count("jv1") == before + 5
        recomputed = Counter(
            tuple(r)
            for node in experiment.cluster.nodes
            for r in node.query(
                "SELECT c.custkey, c.acctbal, o.orderkey, o.totalprice "
                "FROM customer c JOIN orders_1 o ON c.custkey = o.custkey"
            )
        )
        assert Counter(experiment.cluster.all_rows("jv1")) == recomputed


def test_scatter_groups_by_hash(sqlite_cluster):
    groups = sqlite_cluster.scatter([(0,), (1,), (4,)], key_position=0)
    assert groups == {0: [(0,), (4,)], 1: [(1,)]}


def test_run_on_all_times_every_node(sqlite_cluster):
    sqlite_cluster.create_table(R, partitioned_on="k")
    sqlite_cluster.load("R", [(i, "x") for i in range(8)])
    result = sqlite_cluster.run_on_all(
        lambda node: node.query("SELECT COUNT(*) FROM R")
    )
    assert len(result.per_node_seconds) == 4
    assert result.response_seconds >= max(result.per_node_seconds) - 1e-9
    assert result.total_seconds == pytest.approx(sum(result.per_node_seconds))
    assert sum(row[0] for row in result.rows) == 8


# ----------------------------------------------------- maintenance rig


@pytest.fixture(scope="module")
def experiment():
    with TeradataStyleExperiment(
        num_nodes=4, scale=0.002, with_global_indexes=True
    ) as exp:
        yield exp


def test_jv1_methods_agree_on_result_size(experiment):
    delta = experiment.new_delta(32)
    naive = experiment.naive_jv1(delta)
    ar = experiment.ar_jv1(delta)
    gi = experiment.gi_jv1(delta)
    assert naive.result_rows == ar.result_rows == gi.result_rows == 32


def test_jv2_methods_agree_on_result_size(experiment):
    delta = experiment.new_delta(16)
    naive = experiment.naive_jv2(delta)
    ar = experiment.ar_jv2(delta)
    assert naive.result_rows == ar.result_rows == 16 * 4


def test_jv1_join_rows_identical_across_methods(experiment):
    delta = experiment.new_delta(8)
    experiment.naive_jv1(delta)
    naive_rows = Counter(map(tuple, experiment._collect_naive_jv1()))
    experiment.ar_jv1(delta)
    ar_rows = Counter(map(tuple, experiment._collect_ar_jv1()))
    assert naive_rows == ar_rows


def test_gi_requires_flag():
    with TeradataStyleExperiment(num_nodes=2, scale=0.001) as exp:
        with pytest.raises(RuntimeError):
            exp.gi_jv1(exp.new_delta(1))


def test_full_maintenance_matches_recompute():
    with TeradataStyleExperiment(num_nodes=2, scale=0.001) as exp:
        exp.materialize_jv1()
        before = exp.cluster.count("jv1")
        delta = exp.new_delta(8)
        exp.maintain_jv1_insert(delta, method="auxiliary")
        assert exp.cluster.count("jv1") == before + 8
        # Recompute from scratch and compare contents (bag equality).
        recomputed = []
        for node in exp.cluster.nodes:
            recomputed.extend(
                map(tuple, node.query(
                    "SELECT c.custkey, c.acctbal, o.orderkey, o.totalprice "
                    "FROM customer c JOIN orders o ON c.custkey = o.custkey"
                ))
            )
        # The naive join reads only local orders fragments per node, so
        # gather it cluster-wide via broadcast of the full customer table:
        full = Counter()
        customers = exp.cluster.all_rows("customer")
        orders_by_custkey = {}
        for okey, ckey, price, _ in exp.cluster.all_rows("orders"):
            orders_by_custkey.setdefault(ckey, []).append((okey, price))
        for custkey, acctbal, _, _ in customers:
            for okey, price in orders_by_custkey.get(custkey, []):
                full[(custkey, acctbal, okey, price)] += 1
        assert Counter(map(tuple, exp.cluster.all_rows("jv1"))) == full


def test_unsupported_method_rejected():
    with TeradataStyleExperiment(num_nodes=2, scale=0.001) as exp:
        exp.materialize_jv1()
        with pytest.raises(ValueError):
            exp.maintain_jv1_insert(exp.new_delta(1), method="zzz")
