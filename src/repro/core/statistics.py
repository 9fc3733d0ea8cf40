"""Relation statistics for maintenance-plan optimization.

Paper §2.2 observes that with multi-relation views "it is impossible to
state which alternative is best without considering relational statistics".
These are those statistics: cardinalities and per-column distinct counts,
from which join fan-outs are estimated.

They are exact and read in O(L): no statement ever scans a relation to
plan.  A cardinality is the sum of the fragment sizes.  A column's distinct
count is read from a structure that already partitions that column's keys
disjointly across the nodes — the relation's own local index when it is
partitioned on the column, an (unfiltered) auxiliary relation's clustered
index, a global index's partitions — as the sum of the per-node key counts;
for any other column a :class:`DistinctCounter` is attached, on first ask,
to the relation's fragments and from then on sees every physical write
through the observer protocol the local indexes use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..storage import IndexedHeap, Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.catalog import RelationInfo
    from ..cluster.cluster import Cluster


@dataclass(frozen=True)
class RelationStatistics:
    """Cardinality and distinct-value counts for one relation."""

    name: str
    rows: int
    distinct: Dict[str, int] = field(default_factory=dict)

    def fanout(self, column: str) -> float:
        """Expected matches per probed key: rows / distinct(column).

        A probe with a key absent from the relation still matches nothing,
        so this is an upper estimate, which is the safe direction for
        pricing maintenance plans.
        """
        if self.rows == 0:
            return 0.0
        d = self.distinct.get(column, 0)
        if d <= 0:
            return float(self.rows)
        return self.rows / d


class DistinctCounter:
    """Value → multiplicity of one column over all fragments of a relation.

    A :class:`~repro.storage.index.RowObserver`: bulk and per-tuple writes,
    rollback closures (``restore`` / ``delete``) and migration all reach
    the fragments through :class:`~repro.storage.IndexedHeap`, so the count
    stays exact without the write paths knowing it exists.
    """

    __slots__ = ("_position", "_counts", "_fragments")

    def __init__(self, position: int) -> None:
        self._position = position
        self._counts: Dict[object, int] = {}
        self._fragments: List[IndexedHeap] = []

    def __len__(self) -> int:
        return len(self._counts)

    def on_insert(self, rowid: int, row: Row) -> None:
        value = row[self._position]
        self._counts[value] = self._counts.get(value, 0) + 1

    def on_delete(self, rowid: int, row: Row) -> None:
        value = row[self._position]
        left = self._counts[value] - 1
        if left:
            self._counts[value] = left
        else:
            del self._counts[value]

    def follow(self, fragments: List[IndexedHeap]) -> None:
        """Observe exactly ``fragments`` (the relation's current ones).

        The first call counts the column once; after that only a membership
        change does anything: a joined node's fragment is counted and
        subscribed, a departed one's remaining rows (a failed-over node's
        — a gracefully removed node was emptied through observed deletes)
        are forgotten.
        """
        if fragments == self._fragments:
            return
        for fragment in self._fragments:
            if fragment not in fragments:
                fragment.observers.remove(self)
                for rowid, row in fragment.table.scan():
                    self.on_delete(rowid, row)
        for fragment in fragments:
            if fragment not in self._fragments:
                fragment.observers.append(self)
                for rowid, row in fragment.table.scan():
                    self.on_insert(rowid, row)
        self._fragments = fragments


class StatisticsCache:
    """Exact, incrementally maintained statistics for one cluster.

    One instance per cluster (:attr:`Cluster.statistics`) serves every
    planner and advisor, so a column is counted once however many views
    join on it.  Columns are tracked lazily: nothing is attached until a
    planner asks about a column no partitioned structure covers.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self._cluster = cluster
        self._counters: Dict[Tuple[str, str], DistinctCounter] = {}
        self._snapshots: Dict[str, RelationStatistics] = {}

    def rows(self, name: str) -> int:
        return sum(self._cluster.fragment_sizes(name).values())

    def distinct(self, name: str, column: str) -> int:
        """Number of distinct values in ``name.column``."""
        cluster = self._cluster
        info = cluster.catalog.relation(name)
        # A fragment set whose index on ``column`` holds disjoint keys per
        # node: the relation's own, or an AR's that drops no rows.
        if info.is_partitioned_on(column) and column in info.indexes:
            covering = name
        else:
            covering = next(
                (
                    aux.name
                    for aux in cluster.catalog.auxiliaries_of(name)
                    if aux.column == column and aux.predicate is None
                ),
                None,
            )
        if covering is not None:
            return sum(
                node.fragment(covering).indexes[column].distinct_keys()
                for node in cluster.nodes
            )
        gi = cluster.catalog.find_global_index(name, column)
        if gi is not None:
            return sum(
                node.gi_partition(gi.name).distinct_keys() for node in cluster.nodes
            )
        return len(self._counter(info, column))

    def _counter(self, info: "RelationInfo", column: str) -> DistinctCounter:
        key = (info.name, column)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = DistinctCounter(
                info.schema.index_of(column)
            )
        counter.follow([node.fragment(info.name) for node in self._cluster.nodes])
        return counter

    def for_relation(self, name: str) -> RelationStatistics:
        """Every column's statistics (so it tracks every column); the same
        object is returned until a value in it changes."""
        info = self._cluster.catalog.relation(name)
        stats = RelationStatistics(
            name=name,
            rows=self.rows(name),
            distinct={
                column: self.distinct(name, column)
                for column in info.schema.column_names
            },
        )
        held = self._snapshots.get(name)
        if held == stats:
            return held
        self._snapshots[name] = stats
        return stats

    def fanout(self, relation: str, column: str) -> float:
        """Expected matches per probed key: rows / distinct(column)."""
        rows = self.rows(relation)
        if rows == 0:
            return 0.0
        # An auxiliary structure can lag its base while a fault policy runs
        # degraded; an empty one then prices as "every row matches".
        return rows / (self.distinct(relation, column) or 1)

    def spread(self, relation: str, column: str, num_nodes: int) -> float:
        """Expected number of nodes K holding the matches for one key:
        min(fanout, L) under the paper's uniform-placement assumption 11."""
        return min(self.fanout(relation, column), float(num_nodes))
