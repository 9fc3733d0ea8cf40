"""Tests for the query layer: descriptions, view matching, execution."""

from collections import Counter

import pytest

from repro import Cluster, HashPartitioning, Schema, two_way_view
from repro.cluster.node import Node
from repro.core import (
    Aggregate,
    AggregateFunction,
    AggregateSpec,
    defer_view,
    define_aggregate_join_view,
)
from repro.core.view import JoinCondition, ViewDefinitionError
from repro.costs import Op, Tag
from repro.query import Comparison, Filter, Query, QueryEngine, find_matches
from repro.query import matching

A = Schema.of("A", "a", "c", "e")
B = Schema.of("B", "b", "d", "f")


@pytest.fixture
def warehouse(ab_cluster):
    """ab_cluster plus a maintained view and some A rows."""
    ab_cluster.create_join_view(
        two_way_view("JV", "A", "c", "B", "d",
                     partitioning=HashPartitioning("e")),
        method="auxiliary",
    )
    ab_cluster.insert("A", [(i, i % 5, i * 10) for i in range(8)])
    return ab_cluster


JOIN_QUERY = Query(
    relations=("A", "B"),
    select=(("A", "a"), ("B", "f")),
    conditions=(JoinCondition("A", "c", "B", "d"),),
)


def expected_join_rows(cluster):
    rows = []
    for a_row in cluster.scan_relation("A"):
        for b_row in cluster.scan_relation("B"):
            if a_row[1] == b_row[1]:
                rows.append((a_row[0], b_row[2]))
    return Counter(rows)


# ------------------------------------------------------------ descriptions


def test_query_validation():
    with pytest.raises(ViewDefinitionError):
        Query(relations=(), select=(("A", "a"),))
    with pytest.raises(ViewDefinitionError):
        Query(relations=("A",), select=())
    with pytest.raises(ViewDefinitionError, match="distinct"):
        Query(relations=("A", "A"), select=(("A", "a"),))
    with pytest.raises(ViewDefinitionError, match="outside"):
        Query(
            relations=("A", "B"),
            select=(("A", "a"),),
            conditions=(JoinCondition("A", "c", "C", "g"),),
        )
    with pytest.raises(ViewDefinitionError, match="not connected"):
        Query(relations=("A", "B"), select=(("A", "a"),))
    with pytest.raises(ViewDefinitionError, match="filter"):
        Query(
            relations=("A",),
            select=(("A", "a"),),
            filters=(Filter("Z", "x", Comparison.EQ, 1),),
        )


def test_filter_comparisons():
    assert Filter("A", "a", Comparison.LE, 5).matches(5)
    assert not Filter("A", "a", Comparison.LT, 5).matches(5)
    assert Filter("A", "a", Comparison.NE, 5).matches(4)
    assert Filter("A", "a", Comparison.GE, 5).matches(6)
    assert "A.a" in Filter("A", "a", Comparison.GT, 5).describe()


def test_equality_filter_on():
    query = Query(
        relations=("A",),
        select=(("A", "a"),),
        filters=(
            Filter("A", "a", Comparison.GT, 1),
            Filter("A", "c", Comparison.EQ, 3),
        ),
    )
    assert query.equality_filter_on("A", "c").value == 3
    assert query.equality_filter_on("A", "a") is None
    assert "select A.a" in query.describe()


# --------------------------------------------------------------- matching


def test_find_matches_same_graph(warehouse):
    matches = find_matches(JOIN_QUERY, warehouse)
    assert [m.view.name for m in matches] == ["JV"]
    assert matches[0].partition_key is None


def test_match_requires_selected_columns(warehouse):
    narrow = warehouse.create_join_view(
        two_way_view("NARROW", "A", "c", "B", "d", select=[("A", "a")]),
        method="naive",
    )
    query = Query(
        relations=("A", "B"),
        select=(("A", "a"), ("B", "f")),
        conditions=(JoinCondition("A", "c", "B", "d"),),
    )
    names = {m.view.name for m in find_matches(query, warehouse)}
    assert "NARROW" not in names and "JV" in names


def test_match_detects_pinned_partition_key(warehouse):
    query = Query(
        relations=("A", "B"),
        select=(("A", "e"), ("B", "f")),
        conditions=(JoinCondition("A", "c", "B", "d"),),
        filters=(Filter("A", "e", Comparison.EQ, 30),),
    )
    (match,) = find_matches(query, warehouse)
    assert match.partition_key == 30


def test_match_rejects_different_graph(warehouse):
    query = Query(
        relations=("A", "B"),
        select=(("A", "a"),),
        conditions=(JoinCondition("A", "e", "B", "d"),),  # different edge
    )
    assert find_matches(query, warehouse) == []


# -------------------------------------------------------------- execution


def test_base_join_matches_truth(warehouse):
    engine = QueryEngine(warehouse)
    result = engine.answer_from_base(JOIN_QUERY)
    assert Counter(result.rows) == expected_join_rows(warehouse)
    assert result.plan == "base join"
    assert result.cost_ios > 0


def test_view_scan_matches_base_join(warehouse):
    engine = QueryEngine(warehouse)
    matches = find_matches(JOIN_QUERY, warehouse)
    from_view = engine.answer_from_view(JOIN_QUERY, matches[0])
    from_base = engine.answer_from_base(JOIN_QUERY)
    assert Counter(from_view.rows) == Counter(from_base.rows)
    assert "view scan" in from_view.plan


def test_view_probe_single_node(warehouse):
    query = Query(
        relations=("A", "B"),
        select=(("A", "e"), ("B", "f")),
        conditions=(JoinCondition("A", "c", "B", "d"),),
        filters=(Filter("A", "e", Comparison.EQ, 30),),
    )
    engine = QueryEngine(warehouse)
    result = engine.answer(query)
    assert "view probe" in result.plan
    assert all(row[0] == 30 for row in result.rows)
    assert len(result.rows) == 4  # key 3 has 4 B matches
    # Probe = 1 SEARCH (+ fetches) at a single node.
    snapshot = result.snapshot
    assert snapshot.op_count(Op.SEARCH, tags=[Tag.QUERY]) == 1
    busy = [n for n, io in snapshot.per_node_ios([Tag.QUERY]).items() if io > 0]
    assert len(busy) == 1


def test_answer_prefers_view_over_base(warehouse):
    engine = QueryEngine(warehouse)
    result = engine.answer(JOIN_QUERY)
    assert result.plan.startswith("view")
    assert Counter(result.rows) == expected_join_rows(warehouse)


def test_answer_falls_back_to_base_without_views(ab_cluster):
    ab_cluster.insert("A", [(1, 2, 10)])
    engine = QueryEngine(ab_cluster)
    result = engine.answer(JOIN_QUERY)
    assert result.plan == "base join"
    assert Counter(result.rows) == expected_join_rows(ab_cluster)


def test_filters_applied_on_both_paths(warehouse):
    query = Query(
        relations=("A", "B"),
        select=(("A", "a"), ("B", "f")),
        conditions=(JoinCondition("A", "c", "B", "d"),),
        filters=(Filter("A", "a", Comparison.LT, 3),),
    )
    engine = QueryEngine(warehouse)
    base = engine.answer_from_base(query)
    (match,) = find_matches(query, warehouse)
    view = engine.answer_from_view(query, match)
    truth = Counter(
        {row: count for row, count in expected_join_rows(warehouse).items()
         if row[0] < 3}
    )
    assert Counter(base.rows) == truth
    assert Counter(view.rows) == truth


def test_single_relation_query_paths(warehouse):
    # Pinned partition column: one node touched.
    query = Query(
        relations=("A",),
        select=(("A", "c"),),
        filters=(Filter("A", "a", Comparison.EQ, 3),),
    )
    engine = QueryEngine(warehouse)
    result = engine.answer(query)
    assert result.rows == [(3,)]
    # Unfiltered: full scan of all fragments.
    scan_all = engine.answer(
        Query(relations=("A",), select=(("A", "a"),))
    )
    assert sorted(scan_all.rows) == [(i,) for i in range(8)]
    assert scan_all.snapshot.op_count(Op.SCAN_PAGE, tags=[Tag.QUERY]) >= 4


def test_indexed_equality_filter_uses_probes(warehouse):
    # B has a non-clustered index on d (provisioned by the AR method's
    # partitioned-base rule? no — create explicitly).
    warehouse.create_index("B", "d")
    query = Query(
        relations=("B",),
        select=(("B", "b"),),
        filters=(Filter("B", "d", Comparison.EQ, 2),),
    )
    engine = QueryEngine(warehouse)
    result = engine.answer(query)
    assert len(result.rows) == 4
    assert result.snapshot.op_count(Op.SEARCH, tags=[Tag.QUERY]) == 4  # L probes


def test_three_way_query_with_view(ab_cluster):
    C = Schema.of("C", "g", "h")
    ab_cluster.create_relation(C, partitioned_on="h")
    ab_cluster.insert("C", [(i % 3, i) for i in range(6)])
    from repro.core.view import JoinViewDefinition

    definition = JoinViewDefinition(
        name="V3",
        relations=("A", "B", "C"),
        conditions=(
            JoinCondition("A", "c", "B", "d"),
            JoinCondition("B", "b", "C", "g"),
        ),
        select=(("A", "a"), ("C", "h")),
    )
    ab_cluster.create_join_view(definition, method="auxiliary")
    ab_cluster.insert("A", [(1, 2, "x")])
    query = Query(
        relations=("A", "B", "C"),
        select=(("A", "a"), ("C", "h")),
        conditions=definition.conditions,
    )
    engine = QueryEngine(ab_cluster)
    base = engine.answer_from_base(query)
    auto = engine.answer(query)
    assert Counter(auto.rows) == Counter(base.rows)
    assert auto.plan.startswith("view")


# ------------------------------------------------------ aggregate views


@pytest.mark.parametrize("deferred", [False, True], ids=["eager", "deferred"])
def test_aggregate_views_never_answer_join_queries(ab_cluster, deferred):
    """Regression: an aggregate view in the catalog made matching raise
    ``ViewDefinitionError`` (it has no output column ``_group``); its rows
    are groups, not the join rows a query asks for, so it must not match."""
    define_aggregate_join_view(
        ab_cluster,
        two_way_view("AGG", "A", "c", "B", "d"),
        AggregateSpec(
            group_by=(("A", "e"),),
            aggregates=(Aggregate(AggregateFunction.COUNT, "n"),),
        ),
    )
    if deferred:
        defer_view(ab_cluster, "AGG")
    ab_cluster.insert("A", [(i, i % 5, i % 3) for i in range(8)])
    query = Query(
        relations=("A", "B"),
        select=(("A", "e"),),
        conditions=(JoinCondition("A", "c", "B", "d"),),
    )
    truth = Counter(
        (a_row[2],)
        for a_row in ab_cluster.scan_relation("A")
        for b_row in ab_cluster.scan_relation("B")
        if a_row[1] == b_row[1]
    )
    assert find_matches(query, ab_cluster) == []
    engine = QueryEngine(ab_cluster)
    result = engine.answer(query)
    assert result.plan == "base join"
    assert Counter(result.rows) == truth
    ab_cluster.create_join_view(
        two_way_view("JV", "A", "c", "B", "d", select=[("A", "e")]),
        method="naive",
    )
    result = engine.answer(query)
    assert result.plan == "view scan (JV)"
    assert Counter(result.rows) == truth


# ------------------------------------------------------------ plan choice


def _tiny_cluster(b_rows):
    """A and B with one A row, ``b_rows`` B rows and a view partitioned on
    ``A.e``: relations small enough for the base estimate to tie 2.0."""
    cluster = Cluster(num_nodes=4)
    cluster.create_relation(A, partitioned_on="a")
    cluster.create_relation(B, partitioned_on="b")
    cluster.insert("B", [(i, 0, f"f{i}") for i in range(b_rows)])
    cluster.create_join_view(
        two_way_view("JV", "A", "c", "B", "d", partitioning=HashPartitioning("e")),
        method="naive",
    )
    cluster.insert("A", [(0, 0, 7)])
    return cluster


def _fanout_cluster(*views):
    """A(40 rows) ⋈ B(400 rows), ten join keys: the join (1,600 rows) has
    more pages than both bases, in views partitioned as ``views`` say."""
    cluster = Cluster(num_nodes=4)
    cluster.create_relation(A, partitioned_on="a")
    cluster.create_relation(B, partitioned_on="b")
    cluster.insert("B", [(i, i % 10, f"f{i}") for i in range(400)])
    for name, column in views:
        cluster.create_join_view(
            two_way_view(name, "A", "c", "B", "d",
                         partitioning=HashPartitioning(column)),
            method="auxiliary",
        )
    cluster.insert("A", [(i, i % 10, i % 8) for i in range(40)])
    return cluster


def _narrow_view_cluster():
    """Few join rows (one B match per A row) over a large B: scanning the
    view beats the base join."""
    cluster = Cluster(num_nodes=4)
    cluster.create_relation(A, partitioned_on="a")
    cluster.create_relation(B, partitioned_on="b")
    cluster.insert("B", [(i, i, f"f{i}") for i in range(2000)])
    cluster.create_join_view(
        two_way_view("JV", "A", "c", "B", "d", partitioning=HashPartitioning("e")),
        method="naive",
    )
    cluster.insert("A", [(i, i, i % 8) for i in range(40)])
    return cluster


def _pinned_read(value):
    return Query(
        relations=("A", "B"),
        select=(("A", "e"), ("B", "f")),
        conditions=(JoinCondition("A", "c", "B", "d"),),
        filters=(Filter("A", "e", Comparison.EQ, value),),
    )


UNPINNED_READ = Query(
    relations=("A", "B"),
    select=(("A", "e"), ("B", "f")),
    conditions=(JoinCondition("A", "c", "B", "d"),),
    filters=(Filter("B", "f", Comparison.NE, "f3"),),
)


def _create_view(cluster):
    cluster.create_join_view(
        two_way_view("JV", "A", "c", "B", "d", partitioning=HashPartitioning("e")),
        method="auxiliary",
    )


#: case -> (cluster builder, [(change before the read, query, plan)]); each
#: listed plan is also re-derived from the pricing rule by the test.
PLAN_CASES = {
    "tie_goes_to_base": (lambda: _tiny_cluster(1), [
        (None, _pinned_read(7), "base join"),
    ]),
    "probe_beats_three_pages": (lambda: _tiny_cluster(2), [
        (None, _pinned_read(7), "view probe (JV)"),
    ]),
    "base_beats_a_larger_view_scan": (lambda: _fanout_cluster(("JV", "e")), [
        (None, UNPINNED_READ, "base join"),
    ]),
    "view_scan_beats_base": (_narrow_view_cluster, [
        (None, UNPINNED_READ, "view scan (JV)"),
    ]),
    "cheaper_of_two_views": (
        lambda: _fanout_cluster(("BYA", "a"), ("BYE", "e")), [
            (None, _pinned_read(3), "view probe (BYE)"),
            (None, UNPINNED_READ, "base join"),
        ]),
    "first_of_two_equal_views": (
        lambda: _fanout_cluster(("V1", "e"), ("V2", "e")), [
            (None, _pinned_read(3), "view probe (V1)"),
        ]),
    "create_then_drop_view": (lambda: _fanout_cluster(), [
        (None, _pinned_read(3), "base join"),
        (_create_view, _pinned_read(3), "view probe (JV)"),
        (lambda cluster: cluster.drop_view("JV"), _pinned_read(5), "base join"),
    ]),
    "add_node_between_reads": (lambda: _fanout_cluster(("JV", "e")), [
        (None, _pinned_read(6), "view probe (JV)"),
        (lambda cluster: cluster.add_node(), _pinned_read(6), "view probe (JV)"),
        (None, _pinned_read(2), "view probe (JV)"),
    ]),
}


def _priced_plan(cluster, query):
    """The plan ``answer`` must pick: the first minimum of the base join's
    page estimate followed by each matching view's estimate."""
    def pinned(relation):
        column = cluster.catalog.relation(relation).partition_column
        return bool(column) and query.equality_filter_on(relation, column) is not None

    base = sum(
        1.0 if pinned(relation) else cluster.relation_pages(relation)
        for relation in query.relations
    )
    options = [(base, "base join")]
    for match in find_matches(query, cluster):
        name = match.view.name
        if match.partition_key is not None:
            options.append((2.0, f"view probe ({name})"))
        else:
            pages = float(max(1, cluster.relation_pages(name)))
            options.append((pages, f"view scan ({name})"))
    return min(options, key=lambda option: option[0])[1]


def _query_cells(snapshot):
    return {
        (node, op): count
        for (node, op, tag), count in snapshot.cells.items()
        if tag is Tag.QUERY
    }


def _plan_cells(cluster, query, plan):
    """The QUERY cells ``plan`` charges: a probe is one SEARCH plus one
    FETCH per stored match at the key's node; a scan reads every page."""
    if plan == "base join":
        return _query_cells(QueryEngine(cluster).answer_from_base(query).snapshot)
    name = plan[plan.index("(") + 1:-1]
    view = cluster.catalog.view(name)
    if plan.startswith("view scan"):
        return {
            (node.node_id, Op.SCAN_PAGE): node.fragment_pages(name)
            for node in cluster.nodes
            if node.has_fragment(name) and node.fragment_pages(name)
        }
    (match,) = [m for m in find_matches(query, cluster) if m.view is view]
    column = view.partitioner.column
    node = cluster.nodes[view.partitioner.node_of_key(match.partition_key)]
    position = view.schema.index_of(column)
    hits = sum(1 for row in node.scan(name) if row[position] == match.partition_key)
    cells = {(node.node_id, Op.SEARCH): 1.0}
    if hits and not node.fragment(name).index_on(column).clustered:
        cells[(node.node_id, Op.FETCH)] = float(hits)
    return cells


@pytest.mark.parametrize("case", sorted(PLAN_CASES))
def test_plan_choice_follows_the_pricing_rule(case):
    """One engine across every read of a case, so cached read plans meet
    DDL and membership changes; plan, rows and QUERY cells must be what
    the pricing rule and the chosen access path give."""
    build, reads = PLAN_CASES[case]
    cluster = build()
    engine = QueryEngine(cluster)
    for change, query, plan in reads:
        if change is not None:
            change(cluster)
        assert _priced_plan(cluster, query) == plan
        expected_cells = _plan_cells(cluster, query, plan)
        result = engine.answer(query)
        assert result.plan == plan
        assert Counter(result.rows) == Counter(
            QueryEngine(cluster).answer_from_base(query).rows
        )
        assert _query_cells(result.snapshot) == expected_cells


def test_read_plans_of_stale_catalog_versions_are_dropped(ab_cluster):
    """A read plan lives until the next catalog change: the first read
    after one drops every plan of the older version."""
    engine = QueryEngine(ab_cluster)
    engine.answer(_pinned_read(1))
    engine.answer(UNPINNED_READ)
    engine.answer(_pinned_read(2))  # same shape: no new plan
    assert len(engine._plans) == 2
    _create_view(ab_cluster)
    result = engine.answer(_pinned_read(3))
    assert result.plan == "view probe (JV)"
    assert len(engine._plans) == 1


# ------------------------------------------------------------ read work


def _warm_read_work(size, monkeypatch):
    """Calls a warmed-up pinned view read makes with |A| = ``size``."""
    cluster = Cluster(num_nodes=4)
    cluster.create_relation(A, partitioned_on="a")
    cluster.create_relation(B, partitioned_on="b")
    cluster.insert("B", [(i, i, f"f{i}") for i in range(50)])
    cluster.create_join_view(
        two_way_view("JV", "A", "c", "B", "d", partitioning=HashPartitioning("e")),
        method="naive",
    )
    cluster.insert("A", [(i, i % 50, i % 500) for i in range(size)])
    engine = QueryEngine(cluster)
    engine.answer(_pinned_read(3))  # compiles the shape
    work = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            work[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(matching, "match_view")
    counted(Node, "index_probe")
    counted(Node, "fragment_pages")
    before = cluster.ledger.snapshot()
    result = engine.answer(_pinned_read(7))
    spent = cluster.ledger.diff_since(before)
    monkeypatch.undo()
    assert result.plan == "view probe (JV)"
    assert len(result.rows) == size // 500
    # A statement before the first look at the snapshot is not the read's.
    cluster.insert("A", [(size, 7, 7)])
    assert result.snapshot.cells == spent.cells
    assert result.cost_ios == spent.total_workload([Tag.QUERY]) > 0
    return work


def test_warm_read_work_does_not_grow_with_the_relation(monkeypatch):
    """A warm pinned read matches no view, probes once, and stops adding
    up base pages once the base join is dearer than the probe."""
    small = _warm_read_work(2_000, monkeypatch)
    large = _warm_read_work(20_000, monkeypatch)
    assert small == large
    assert small["match_view"] == 0
    assert small["index_probe"] == 1
    assert 0 < small["fragment_pages"] < 4  # fewer than A's fragments
