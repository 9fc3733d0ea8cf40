"""Shared fixtures: small clusters and workloads used across test modules."""

import pytest

from repro import Cluster, HashPartitioning, Schema, two_way_view
from repro.costs.ledger import format_cell_diff
from repro.workloads.uniform import UniformJoinWorkload, build_cluster


@pytest.fixture
def ab_cluster():
    """A 4-node cluster with A(a,c,e) and B(b,d,f), B pre-loaded so every
    join key 0..4 has 4 matches; neither relation partitioned on the join
    attribute."""
    cluster = Cluster(num_nodes=4)
    cluster.create_relation(Schema.of("A", "a", "c", "e"), partitioned_on="a")
    cluster.create_relation(Schema.of("B", "b", "d", "f"), partitioned_on="b")
    cluster.insert("B", [(i, i % 5, f"f{i}") for i in range(20)])
    return cluster


def make_view(cluster, method, strategy="auto", **kwargs):
    """Define the canonical JV = A join B view on ``ab_cluster``."""
    return cluster.create_join_view(
        two_way_view("JV", "A", "c", "B", "d", partitioning=HashPartitioning("e")),
        method=method,
        strategy=strategy,
        **kwargs,
    )


def run_ops(cluster, ops):
    """Apply ``(kind, relation, payload)`` ops, kind being the statement
    method: ``insert``, ``delete`` or ``update``."""
    for kind, relation, payload in ops:
        getattr(cluster, kind)(relation, payload)


def network_state(cluster):
    stats = cluster.network.stats
    return (
        stats.messages,
        stats.local_deliveries,
        dict(stats.by_link),
        stats.drops,
        stats.duplicates,
        stats.retries,
        stats.backoff_slots,
    )


def fragment_contents(cluster, name):
    """Per-node fragment rows *in storage order* — catches any reordering,
    not just multiset divergence."""
    return {
        node.node_id: node.scan(name)
        for node in cluster.nodes
        if node.has_fragment(name)
    }


def assert_equivalent(cluster, reference, names):
    """Two engines' runs left identical ledger cells, network statistics,
    contents of the ``names`` fragments and view cardinalities."""
    cell_diff = cluster.ledger.diff(reference.ledger)
    assert not cell_diff, (
        f"ledger cells diverge (cluster - reference):\n{format_cell_diff(cell_diff)}"
    )
    assert network_state(cluster) == network_state(reference)
    for name in names:
        assert fragment_contents(cluster, name) == fragment_contents(
            reference, name
        ), f"fragment contents diverge for {name!r}"
    for view_name in cluster.catalog.views:
        assert cluster.statistics.rows(view_name) == reference.statistics.rows(
            view_name
        )


@pytest.fixture
def uniform_cluster_factory():
    """Factory building the model's scenario cluster for a method/variant."""

    def build(method, num_nodes=8, fanout=5, clustered=False, strategy="inl",
              num_keys=64):
        workload = UniformJoinWorkload(
            num_keys=num_keys, fanout=fanout, clustered=clustered
        )
        cluster = build_cluster(
            workload, num_nodes=num_nodes, method=method, strategy=strategy
        )
        return cluster, workload

    return build
