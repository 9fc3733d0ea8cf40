"""Join-view definitions.

A :class:`JoinViewDefinition` is the declarative object behind

    CREATE VIEW jv AS
        SELECT <select list>
        FROM R1, ..., Rn
        WHERE <equi-join conditions>
        PARTITIONED ON <output column>;

covering the paper's two-relation views (§2.1) and multi-relation views
(§2.2), with optional projection and either hash placement ("partitioned on
an attribute of A") or round-robin placement (the "not partitioned on an
attribute of A" variants of the figures).
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..cluster.partitioning import (
    HashPartitioning,
    PartitioningSpec,
    RoundRobinPartitioning,
)
from ..storage.schema import Column, Row, Schema


class ViewDefinitionError(ValueError):
    """Raised for malformed view definitions."""


@dataclass(frozen=True)
class JoinCondition:
    """One equi-join predicate: ``left.left_column = right.right_column``."""

    left: str
    left_column: str
    right: str
    right_column: str

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise ViewDefinitionError("self-joins are not supported")

    def touches(self, relation: str) -> bool:
        return relation in (self.left, self.right)

    def column_of(self, relation: str) -> str:
        if relation == self.left:
            return self.left_column
        if relation == self.right:
            return self.right_column
        raise ViewDefinitionError(f"{relation!r} is not part of {self}")

    def other(self, relation: str) -> Tuple[str, str]:
        """The (relation, column) on the opposite side of ``relation``."""
        if relation == self.left:
            return (self.right, self.right_column)
        if relation == self.right:
            return (self.left, self.left_column)
        raise ViewDefinitionError(f"{relation!r} is not part of {self}")


#: A (relation, column) pair in a select list.
SelectItem = Tuple[str, str]


@dataclass(frozen=True)
class JoinViewDefinition:
    """A materialized join view over two or more base relations."""

    name: str
    relations: Tuple[str, ...]
    conditions: Tuple[JoinCondition, ...]
    select: Optional[Tuple[SelectItem, ...]] = None
    partitioning: PartitioningSpec = field(default_factory=RoundRobinPartitioning)

    def __post_init__(self) -> None:
        if len(self.relations) < 2:
            raise ViewDefinitionError("a join view needs at least two relations")
        if len(set(self.relations)) != len(self.relations):
            raise ViewDefinitionError("relations in a join view must be distinct")
        if not self.conditions:
            raise ViewDefinitionError("a join view needs at least one join condition")
        known = set(self.relations)
        for condition in self.conditions:
            if condition.left not in known or condition.right not in known:
                raise ViewDefinitionError(
                    f"condition {condition} references a relation outside {known}"
                )
        self._check_connected()

    def _check_connected(self) -> None:
        """The join graph must be connected, else maintenance would need
        cartesian products the paper never considers."""
        adjacency: Dict[str, set] = {r: set() for r in self.relations}
        for condition in self.conditions:
            adjacency[condition.left].add(condition.right)
            adjacency[condition.right].add(condition.left)
        seen = {self.relations[0]}
        frontier = [self.relations[0]]
        while frontier:
            current = frontier.pop()
            for neighbour in adjacency[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        if seen != set(self.relations):
            raise ViewDefinitionError(
                f"join graph of {self.name!r} is not connected: "
                f"{set(self.relations) - seen} unreachable"
            )

    def conditions_touching(self, relation: str) -> List[JoinCondition]:
        return [c for c in self.conditions if c.touches(relation)]

    def join_columns_of(self, relation: str) -> List[str]:
        """The distinct join attributes ``relation`` participates with."""
        seen: List[str] = []
        for condition in self.conditions_touching(relation):
            column = condition.column_of(relation)
            if column not in seen:
                seen.append(column)
        return seen


class BoundView:
    """A view definition resolved against concrete base-relation schemas.

    Owns the output schema (with SQL-style collision renaming), provenance
    of every output column, and the from-scratch evaluator used to verify
    incremental maintenance.
    """

    def __init__(self, definition: JoinViewDefinition, schemas: Mapping[str, Schema]) -> None:
        self.definition = definition
        self.schemas = {name: schemas[name] for name in definition.relations}
        for condition in definition.conditions:
            for relation, column in (
                (condition.left, condition.left_column),
                (condition.right, condition.right_column),
            ):
                if column not in self.schemas[relation]:
                    raise ViewDefinitionError(
                        f"{relation!r} has no column {column!r} "
                        f"(condition {condition})"
                    )
        self._qualified = self._qualify_columns()
        self.select: Tuple[SelectItem, ...] = (
            definition.select
            if definition.select is not None
            else tuple(
                (relation, column.name)
                for relation in definition.relations
                for column in self.schemas[relation].columns
            )
        )
        for relation, column in self.select:
            if relation not in self.schemas:
                raise ViewDefinitionError(f"select references unknown relation {relation!r}")
            if column not in self.schemas[relation]:
                raise ViewDefinitionError(
                    f"select references unknown column {relation}.{column}"
                )
        self.schema = Schema(
            definition.name,
            tuple(
                Column(self._qualified[(relation, column)],
                       self.schemas[relation].columns[
                           self.schemas[relation].index_of(column)].kind)
                for relation, column in self.select
            ),
        )
        if isinstance(definition.partitioning, HashPartitioning):
            if definition.partitioning.column not in self.schema:
                raise ViewDefinitionError(
                    f"view {definition.name!r} is partitioned on "
                    f"{definition.partitioning.column!r}, which is not in its "
                    f"select list {self.schema.column_names}"
                )

    def _qualify_columns(self) -> Dict[SelectItem, str]:
        """Output name of each (relation, column): bare when unique across
        the view's relations, ``relation_column`` when names collide."""
        frequency = collections.Counter(
            column.name
            for relation in self.definition.relations
            for column in self.schemas[relation].columns
        )
        qualified: Dict[SelectItem, str] = {}
        for relation in self.definition.relations:
            for column in self.schemas[relation].columns:
                if frequency[column.name] > 1:
                    qualified[(relation, column.name)] = f"{relation}_{column.name}"
                else:
                    qualified[(relation, column.name)] = column.name
        return qualified

    def output_name(self, relation: str, column: str) -> str:
        return self._qualified[(relation, column)]

    def source_of_output(self, output_column: str) -> SelectItem:
        """The (relation, column) an output column came from."""
        for item in self.select:
            if self._qualified[item] == output_column:
                return item
        raise ViewDefinitionError(
            f"view {self.definition.name!r} has no output column {output_column!r}"
        )

    def columns_needed_from(self, relation: str) -> List[str]:
        """Columns of ``relation`` the view needs: its select-list columns
        plus every join attribute — the trimming rule of paper §2.1.2."""
        needed: List[str] = []
        for rel, column in self.select:
            if rel == relation and column not in needed:
                needed.append(column)
        for column in self.definition.join_columns_of(relation):
            if column not in needed:
                needed.append(column)
        return needed

    # ------------------------------------------------------------ evaluate

    def evaluate(self, contents: Mapping[str, Iterable[Row]]) -> "collections.Counter":
        """The view's contents computed from scratch (bag semantics).

        Joins the base relations with in-memory hash joins following the
        definition's conditions; used by tests and examples as the ground
        truth that incremental maintenance must match.
        """
        order = self._evaluation_order()
        joined_relations = [order[0]]
        keys = self._select_items(order[0])
        tuples: List[Dict[SelectItem, object]] = [
            dict(zip(keys, row)) for row in contents[order[0]]
        ]
        for partner in order[1:]:
            connecting = [
                condition
                for condition in self.definition.conditions
                if condition.touches(partner)
                and condition.other(partner)[0] in joined_relations
            ]
            probe_condition, extra = connecting[0], connecting[1:]
            partner_schema = self.schemas[partner]
            key_position = partner_schema.index_of(probe_condition.column_of(partner))
            table: Dict[object, List[Row]] = {}
            for row in contents[partner]:
                table.setdefault(row[key_position], []).append(row)
            next_tuples: List[Dict[SelectItem, object]] = []
            left_relation, left_column = probe_condition.other(partner)
            partner_keys = self._select_items(partner)
            for tup in tuples:
                for row in table.get(tup[(left_relation, left_column)], ()):
                    candidate = dict(tup)
                    candidate.update(zip(partner_keys, row))
                    if all(
                        candidate[condition.other(partner)]
                        == candidate[(partner, condition.column_of(partner))]
                        for condition in extra
                    ):
                        next_tuples.append(candidate)
            tuples = next_tuples
            joined_relations.append(partner)
        return collections.Counter(
            tuple(tup[item] for item in self.select) for tup in tuples
        )

    def _select_items(self, relation: str) -> Tuple[SelectItem, ...]:
        """``(relation, column)`` for each of the relation's columns, in
        row order: the keys :meth:`evaluate` spreads a row under."""
        return tuple(
            (relation, column) for column in self.schemas[relation].column_names
        )

    def _evaluation_order(self) -> List[str]:
        """A join order where each relation connects to its predecessors."""
        order = [self.definition.relations[0]]
        remaining = list(self.definition.relations[1:])
        while remaining:
            for candidate in remaining:
                connected = any(
                    condition.touches(candidate)
                    and condition.other(candidate)[0] in order
                    for condition in self.definition.conditions
                )
                if connected:
                    order.append(candidate)
                    remaining.remove(candidate)
                    break
            else:  # pragma: no cover - unreachable, graph is connected
                raise ViewDefinitionError("join graph is not connected")
        return order


def two_way_view(
    name: str,
    left: str,
    left_column: str,
    right: str,
    right_column: str,
    select: Optional[Sequence[SelectItem]] = None,
    partitioning: Optional[PartitioningSpec] = None,
) -> JoinViewDefinition:
    """Convenience constructor for the paper's canonical ``A ⋈ B`` view."""
    return JoinViewDefinition(
        name=name,
        relations=(left, right),
        conditions=(JoinCondition(left, left_column, right, right_column),),
        select=None if select is None else tuple(select),
        partitioning=partitioning or RoundRobinPartitioning(),
    )
