"""Query descriptions: select-project-join over the warehouse.

The paper's premise is that materialized join views exist "to speed up
query execution".  A :class:`Query` is the read-side counterpart of a
:class:`~repro.core.view.JoinViewDefinition`: the same equi-join graph,
plus simple column filters, asking for a projection of the join result.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..core.view import JoinCondition, ViewDefinitionError


class Comparison(enum.Enum):
    """Filter comparisons supported by the engine."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @property
    def evaluate(self) -> Callable[[object, object], bool]:
        return _OPERATORS[self]


_OPERATORS: Dict[Comparison, Callable[[object, object], bool]] = {
    Comparison.EQ: operator.eq,
    Comparison.NE: operator.ne,
    Comparison.LT: operator.lt,
    Comparison.LE: operator.le,
    Comparison.GT: operator.gt,
    Comparison.GE: operator.ge,
}


@dataclass(frozen=True)
class Filter:
    """A single-column predicate: ``relation.column <op> value``."""

    relation: str
    column: str
    comparison: Comparison
    value: object

    def matches(self, cell: object) -> bool:
        return self.comparison.evaluate(cell, self.value)

    def describe(self) -> str:
        return f"{self.relation}.{self.column} {self.comparison.value} {self.value!r}"


@dataclass(frozen=True)
class Query:
    """A conjunctive select-project-join query.

    ``select`` lists (relation, column) outputs; ``conditions`` is the
    equi-join graph over ``relations`` (empty for single-relation queries);
    ``filters`` are ANDed single-column predicates.
    """

    relations: Tuple[str, ...]
    select: Tuple[Tuple[str, str], ...]
    conditions: Tuple[JoinCondition, ...] = ()
    filters: Tuple[Filter, ...] = ()

    def __post_init__(self) -> None:
        if not self.relations:
            raise ViewDefinitionError("a query needs at least one relation")
        if len(set(self.relations)) != len(self.relations):
            raise ViewDefinitionError("query relations must be distinct")
        if not self.select:
            raise ViewDefinitionError("a query needs a select list")
        known = set(self.relations)
        for relation, _ in self.select:
            if relation not in known:
                raise ViewDefinitionError(
                    f"select references {relation!r}, not in FROM {known}"
                )
        for condition in self.conditions:
            if condition.left not in known or condition.right not in known:
                raise ViewDefinitionError(
                    f"condition {condition} references a relation outside FROM"
                )
        for item in self.filters:
            if item.relation not in known:
                raise ViewDefinitionError(
                    f"filter on {item.relation!r}, not in FROM {known}"
                )
        if len(self.relations) > 1:
            self._check_joined()

    def _check_joined(self) -> None:
        """Multi-relation queries must be connected (no cross products)."""
        adjacency: Dict[str, set] = {r: set() for r in self.relations}
        for condition in self.conditions:
            adjacency[condition.left].add(condition.right)
            adjacency[condition.right].add(condition.left)
        seen = {self.relations[0]}
        frontier = [self.relations[0]]
        while frontier:
            for neighbour in adjacency[frontier.pop()]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        if seen != set(self.relations):
            raise ViewDefinitionError(
                "query join graph is not connected (cross products are "
                "not supported)"
            )

    def equality_filter_on(self, relation: str, column: str) -> Optional[Filter]:
        """The first ``relation.column = value`` filter, if any — the handle
        a partitioned view or index can exploit."""
        for item in self.filters:
            if (
                item.relation == relation
                and item.column == column
                and item.comparison is Comparison.EQ
            ):
                return item
        return None

    def describe(self) -> str:
        outputs = ", ".join(f"{r}.{c}" for r, c in self.select)
        joins = " and ".join(
            f"{c.left}.{c.left_column}={c.right}.{c.right_column}"
            for c in self.conditions
        )
        where = " and ".join(f.describe() for f in self.filters)
        parts = [f"select {outputs}", f"from {', '.join(self.relations)}"]
        if joins or where:
            parts.append("where " + " and ".join(p for p in (joins, where) if p))
        return " ".join(parts)
