"""The analytical model's synthetic workload: a view JV = A ⋈ B.

Builds exactly the situation of §3.1's assumptions: neither A nor B is
partitioned on the join attribute; B holds N matching tuples per join key,
spread over min(N, L) nodes; inserted A tuples are uniformly distributed on
the join attribute.  Used by the simulation side of every Figure 7-12
bench to check the executable engine against the closed forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional

from ..cluster.partitioning import HashPartitioning, RoundRobinPartitioning
from ..storage.schema import Row, Schema
from ..core.view import JoinViewDefinition, two_way_view

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import Cluster

A_SCHEMA = Schema.of("A", "a", "c", "e", kinds=(int, int, int))
B_SCHEMA = Schema.of("B", "b", "d", "f", kinds=(int, int, int))


@dataclass(frozen=True)
class UniformJoinWorkload:
    """Parameters of the synthetic A ⋈ B scenario.

    ``num_keys`` distinct join-attribute values exist; B holds ``fanout``
    tuples per key (the model's N).  ``clustered`` declares B's local index
    on the join attribute clustered (the J_B-clustered scenarios).
    """

    num_keys: int = 64
    fanout: int = 10
    clustered: bool = False
    view_partitioned: bool = True

    def b_rows(self) -> List[Row]:
        """B: ``fanout`` matches per key.  The matches of one key carry
        consecutive partitioning values ``key*fanout + i``, so they hash to
        exactly min(N, L) distinct nodes — the model's assumption 11."""
        rows: List[Row] = []
        payload = 0
        for key in range(self.num_keys):
            for match in range(self.fanout):
                rows.append((key * self.fanout + match, key, payload))
                payload += 1
        return rows

    def a_row(self, serial: int) -> Row:
        """The ``serial``-th inserted A tuple; join keys cycle through the
        key space, giving the uniform distribution of assumption 9."""
        return (serial, serial % self.num_keys, serial)

    def a_rows(self, count: int, starting_at: int = 0) -> List[Row]:
        return [self.a_row(serial) for serial in range(starting_at, starting_at + count)]

    def a_stream(self, starting_at: int = 0) -> Iterator[Row]:
        return (self.a_row(serial) for serial in itertools.count(starting_at))

    def definition(self, name: str = "JV") -> JoinViewDefinition:
        partitioning = (
            HashPartitioning("e") if self.view_partitioned else RoundRobinPartitioning()
        )
        return two_way_view(name, "A", "c", "B", "d", partitioning=partitioning)


def build_cluster(
    workload: UniformJoinWorkload,
    num_nodes: int,
    method: str,
    strategy: str = "auto",
    layout: Optional[object] = None,
) -> "Cluster":
    """A ready cluster: A and B created (B pre-loaded), the view defined.

    A is partitioned on ``a`` and B on ``b`` — neither on the join
    attribute, the paper's §3.1 premise.  B's pre-load goes straight into
    fragments (uncharged), so the first measured statement is the delta.
    """
    from ..cluster.cluster import Cluster
    from ..storage.pages import DEFAULT_LAYOUT

    cluster = Cluster(num_nodes=num_nodes, layout=layout or DEFAULT_LAYOUT)
    cluster.create_relation(A_SCHEMA, partitioned_on="a")
    cluster.create_relation(
        B_SCHEMA, partitioned_on="b", indexes=[("d", workload.clustered)]
    )
    partitioner = cluster.catalog.relation("B").partitioner
    cluster._write_placed("B", [partitioner.split(workload.b_rows())])
    cluster.create_join_view(workload.definition(), method=method, strategy=strategy)
    return cluster
