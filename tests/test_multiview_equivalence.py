"""Shared multi-view DAG ↔ independent per-view loop equivalence.

ISSUE 8's acceptance bar: a cluster maintaining V overlapping views through
the shared delta-propagation DAG (``shared_maintenance=True``, the default)
must produce **identical view contents** (per node, in storage order) and
row counts compared to the historical independent loop — across all three
methods, eager and deferred maintainers, and serial vs worker-pool
execution — while billing shared probes only once.  Mid-stream DDL
(``create_view`` / ``drop_view``) must invalidate the shared grouping.
"""

import random
from collections import Counter

import pytest

from repro import Cluster, HashPartitioning, Schema, two_way_view
from repro.cluster.parallel import fork_available
from repro.core.aggregates import (
    Aggregate,
    AggregateFunction,
    AggregateSpec,
    aggregate_rows,
    define_aggregate_join_view,
    recompute_aggregate,
)
from repro.core.deferred import defer_view
from repro.core.registry import recompute_view
from repro.core.view import JoinViewDefinition
from repro.costs import Op, Tag
from tests.conftest import fragment_contents

METHODS = ("naive", "auxiliary", "global_index")

A_SCHEMA = Schema.of("A", "a", "c", "e", kinds=(int, int, int))
B_SCHEMA = Schema.of("B", "b", "d", "f", kinds=(int, int, int))

#: Overlapping projections — same join clause A.c = B.d throughout; every
#: select keeps "e" (the views' partitioning column).
SELECTS = (
    [("A", "e"), ("A", "c"), ("B", "f")],
    [("A", "e"), ("A", "a"), ("B", "b")],
    [("A", "e"), ("A", "c"), ("A", "a"), ("B", "b"), ("B", "d"), ("B", "f")],
)


def _build(
    method,
    shared,
    num_views=3,
    workers=None,
    strategy="inl",
    deferred_last=False,
):
    cluster = Cluster(
        num_nodes=4, workers=workers, shared_maintenance=shared
    )
    cluster.create_relation(A_SCHEMA, partitioned_on="a")
    cluster.create_relation(
        B_SCHEMA, partitioned_on="b", indexes=[("d", True)]
    )
    cluster.insert("B", [(i, i % 5, 100 + i) for i in range(20)])
    for i in range(num_views):
        cluster.create_join_view(
            two_way_view(
                f"JV{i}", "A", "c", "B", "d",
                select=SELECTS[i % len(SELECTS)],
                partitioning=HashPartitioning("e"),
            ),
            method=method,
            strategy=strategy,
        )
    if deferred_last:
        defer_view(cluster, f"JV{num_views - 1}", flush_threshold=6)
    return cluster


def _script(cluster, seed=11, steps=24):
    """A deterministic mixed run: A inserts/deletes and B writes (which
    maintain the views in the other direction and co-update the ARs/GIs)."""
    rng = random.Random(seed)
    live_a = []
    serial = 0
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.55 or not live_a:
            rows = [
                (5000 + serial + j, (serial + j) % 5, serial + j)
                for j in range(rng.randint(1, 3))
            ]
            serial += len(rows)
            live_a.extend(rows)
            cluster.insert("A", rows)
        elif roll < 0.75:
            victim = live_a.pop(rng.randrange(len(live_a)))
            cluster.delete("A", [victim])
        else:
            cluster.insert("B", [(100 + serial, rng.randrange(5), serial)])
            serial += 1


def _assert_views_identical(shared, independent, names):
    for name in names:
        assert fragment_contents(shared, name) == fragment_contents(
            independent, name
        ), f"view contents diverge for {name!r}"
        assert shared.statistics.rows(name) == independent.statistics.rows(name)
        assert Counter(shared.view_rows(name)) == recompute_view(shared, name)


# ------------------------------------------------- shared vs independent


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("mode", ("eager", "deferred"))
def test_shared_matches_independent_serial(method, mode):
    deferred = mode == "deferred"
    shared = _build(method, shared=True, deferred_last=deferred)
    independent = _build(method, shared=False, deferred_last=deferred)
    _script(shared)
    _script(independent)
    if deferred:
        shared.catalog.view("JV2").maintainer.refresh()
        independent.catalog.view("JV2").maintainer.refresh()
    _assert_views_identical(shared, independent, ["JV0", "JV1", "JV2"])
    assert shared.multi_view_stats.statements > 0
    assert independent.multi_view_stats.statements == 0


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("strategy", ("auto", "sort_merge"))
def test_shared_matches_independent_other_strategies(method, strategy):
    shared = _build(method, shared=True, strategy=strategy)
    independent = _build(method, shared=False, strategy=strategy)
    _script(shared, seed=7)
    _script(independent, seed=7)
    _assert_views_identical(shared, independent, ["JV0", "JV1", "JV2"])


@pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable on this platform"
)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("workers", (1, 2))
def test_shared_matches_independent_parallel(method, workers):
    shared = _build(method, shared=True, workers=workers)
    independent = _build(method, shared=False, workers=workers)
    try:
        _script(shared, seed=3)
        _script(independent, seed=3)
        _assert_views_identical(shared, independent, ["JV0", "JV1", "JV2"])
        assert shared.multi_view_stats.statements > 0
    finally:
        shared.close()
        independent.close()


# ----------------------------------------------------- charge attribution


@pytest.mark.parametrize("method", METHODS)
def test_shared_probes_billed_once(method):
    """Same-clause views: the group's join work is billed once — MAINTAIN
    charges match a SINGLE view's, while VIEW-tagged writes stay per view."""

    def run(shared, num_views):
        cluster = _build(method, shared=shared, num_views=num_views)
        return cluster, cluster.insert("A", [(9000, 2, 7), (9001, 4, 8)])

    _, single = run(shared=False, num_views=1)
    cluster, grouped = run(shared=True, num_views=3)

    for op in (Op.SEND, Op.SEARCH, Op.FETCH):
        assert grouped.op_count(op, tags=[Tag.MAINTAIN]) == single.op_count(
            op, tags=[Tag.MAINTAIN]
        ), f"shared group's MAINTAIN {op} differs from one view's"
    # View writes are per member: three views' worth of INSERTs.
    assert grouped.op_count(Op.INSERT, tags=[Tag.VIEW]) == 3 * single.op_count(
        Op.INSERT, tags=[Tag.VIEW]
    )
    stats = cluster.multi_view_stats
    assert stats.last_partition_passes == 1
    assert stats.partition_passes_per_statement == 1.0
    assert stats.probes_deduped > 0


def test_counters_prove_one_pass_per_statement():
    cluster = _build("auxiliary", shared=True, num_views=5)
    for i in range(6):
        cluster.insert("A", [(7000 + i, i % 5, i)])
    stats = cluster.multi_view_stats
    assert stats.statements == 6
    assert stats.partition_passes == 6
    assert stats.partition_passes_per_statement == 1.0
    # Each executed probe served 4 extra views.
    assert stats.probes_deduped == 4 * stats.probes_executed


def test_single_view_cluster_never_takes_shared_path():
    cluster = _build("auxiliary", shared=True, num_views=1)
    cluster.insert("A", [(9100, 1, 1)])
    assert cluster.multi_view_stats.statements == 0
    assert cluster.multi_view_stats.partition_passes == 0


# ------------------------------------------------------- mid-stream DDL


def test_create_and_drop_view_invalidate_shared_plan():
    shared = _build("auxiliary", shared=True, num_views=2)
    independent = _build("auxiliary", shared=False, num_views=2)
    for cluster in (shared, independent):
        cluster.insert("A", [(8000 + i, i % 5, i) for i in range(4)])
        # Mid-stream CREATE: the new view joins the group on the next
        # statement (its contents are backfilled at definition time).
        cluster.create_join_view(
            two_way_view(
                "JV_late", "A", "c", "B", "d",
                select=[("A", "e"), ("B", "f")],
                partitioning=HashPartitioning("e"),
            ),
            method="auxiliary",
            strategy="inl",
        )
        cluster.insert("A", [(8100 + i, i % 5, i) for i in range(4)])
        # Mid-stream DROP: the group shrinks; maintenance must not touch
        # the dropped view again.
        cluster.drop_view("JV1")
        cluster.insert("A", [(8200 + i, i % 5, i) for i in range(4)])
    _assert_views_identical(shared, independent, ["JV0", "JV_late"])
    assert "JV1" not in shared.catalog.views
    # Three views shared after the create, two after the drop.
    assert shared.multi_view_stats.last_partition_passes == 1


def test_views_differing_only_in_select_share_compiled_join():
    """Satellite: the optimizer keys compiled join fragments on the join
    clause, so projection-only variants share one CompiledJoin instance
    (and one layout/filter table) even in independent mode."""
    cluster = _build("auxiliary", shared=False, num_views=3)
    compiled = [
        cluster.catalog.view(f"JV{i}").maintainer.planner.compiled_for("A")
        for i in range(3)
    ]
    assert compiled[0].join is compiled[1].join is compiled[2].join
    assert compiled[0].mapper is not compiled[1].mapper
    # Mappers project differently even though the join is one object.
    assert compiled[0].mapper.to_view_row != compiled[1].mapper.to_view_row
    # DDL invalidates: a new catalog version gets a fresh compiled join.
    cluster.create_relation(Schema.of("C", "x"), partitioned_on="x")
    fresh = cluster.catalog.view("JV0").maintainer.planner.compiled_for("A")
    assert fresh.join is not compiled[0].join


# ------------------------------------------------------ aggregate views


def test_aggregate_view_shares_group_with_plain_sibling():
    shared = _build("auxiliary", shared=True, num_views=2)
    independent = _build("auxiliary", shared=False, num_views=2)
    spec = AggregateSpec(
        group_by=(("B", "d"),),
        aggregates=(
            Aggregate(AggregateFunction.COUNT, "n"),
            Aggregate(AggregateFunction.SUM, "total", source=("A", "e")),
        ),
    )
    for cluster in (shared, independent):
        define_aggregate_join_view(
            cluster,
            JoinViewDefinition(
                name="AGG",
                relations=("A", "B"),
                conditions=shared.catalog.view("JV0").definition.conditions,
                select=(("A", "e"), ("B", "d")),
            ),
            spec,
            method="auxiliary",
            strategy="inl",
        )
        _script(cluster, seed=5, steps=16)
    _assert_views_identical(shared, independent, ["JV0", "JV1"])
    assert sorted(aggregate_rows(shared, "AGG")) == sorted(
        aggregate_rows(independent, "AGG")
    )
    assert sorted(aggregate_rows(shared, "AGG")) == sorted(
        recompute_aggregate(shared, "AGG")
    )
    assert shared.multi_view_stats.statements > 0


# ------------------------- worker probe cache, cross-view invalidation


@pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable on this platform"
)
def test_worker_probe_cache_partner_write_invalidates_for_all_views():
    """Satellite: the worker heavy-hitter cache keys slots on the physical
    structure (fragment, column, key) — never the view — so a B write-set
    touching a key promoted while maintaining view A's group must also be
    seen by view B's probes.  Both views share AR_B_d here; a stale entry
    would corrupt whichever view probes second."""
    cluster = _build(
        "auxiliary", shared=True, num_views=2, workers=1
    )
    try:
        # Promote key 3 past the worker cache threshold on AR_B_d.
        for i in range(8):
            cluster.insert("A", [(6000 + i, 3, i)])
        # Write the probed partner: new match + drop an old one for key 3.
        cluster.insert("B", [(97, 3, 999)])
        cluster.delete("B", [(3, 3, 103)])
        # Statements after the partner writes must see the new truth in
        # BOTH views, not just the one that populated the cache.
        cluster.insert("A", [(6100, 3, 100), (6101, 3, 101)])
        for name in ("JV0", "JV1"):
            assert Counter(cluster.view_rows(name)) == recompute_view(
                cluster, name
            )
        flat = [
            row for rows in fragment_contents(cluster, "JV0").values()
            for row in rows
        ]
        assert any(999 in row for row in flat)
    finally:
        cluster.close()
