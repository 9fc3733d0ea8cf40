"""View matching: can a materialized join view answer a query?

A view answers a query when it joins exactly the same relations on the
same equi-join graph, projects every column the query selects, and keeps
every column the query filters on.  (Classic view-matching is far more
general; this covers the paper's setting, where views are defined for the
queries they serve.)  Aggregate views never match: they store one row per
group, not the join rows a query asks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..cluster.catalog import ViewInfo
from ..core.aggregates import AggregateViewMaintainer
from ..core.view import BoundView, JoinCondition, JoinViewDefinition
from .query import Query


def _condition_key(condition: JoinCondition) -> Tuple:
    """Symmetric identity of an equi-join edge."""
    left = (condition.left, condition.left_column)
    right = (condition.right, condition.right_column)
    return (left, right) if left <= right else (right, left)


@dataclass(frozen=True)
class ViewMatch:
    """A usable rewrite of a query onto a materialized view."""

    view: ViewInfo
    #: position in the view row of each query select item, in order
    select_positions: Tuple[int, ...]
    #: (view-row position, Filter) pairs for the query's filters
    filter_positions: Tuple[Tuple[int, object], ...]
    #: the view's partition column equality value, when the query pins it
    partition_key: Optional[object]
    #: index in ``query.filters`` of the filter that pins it, if one does
    partition_filter: Optional[int] = None


def match_view(query: Query, view: ViewInfo, bound: BoundView) -> Optional[ViewMatch]:
    """A :class:`ViewMatch` if ``view`` answers ``query``, else None."""
    if _is_aggregate(view):
        return None
    definition: JoinViewDefinition = bound.definition
    if set(definition.relations) != set(query.relations):
        return None
    if {_condition_key(c) for c in definition.conditions} != {
        _condition_key(c) for c in query.conditions
    }:
        return None
    available = {item: position for position, item in enumerate(bound.select)}
    select_positions: List[int] = []
    for item in query.select:
        if item not in available:
            return None
        select_positions.append(available[item])
    filter_positions: List[Tuple[int, object]] = []
    for item in query.filters:
        key = (item.relation, item.column)
        if key not in available:
            return None
        filter_positions.append((available[key], item))
    partition_key = partition_filter = None
    partition_column = getattr(view.partitioner, "column", None)
    if partition_column is not None:
        source = bound.source_of_output(partition_column)
        pinned = query.equality_filter_on(*source)
        if pinned is not None:
            partition_key = pinned.value
            partition_filter = next(
                index for index, item in enumerate(query.filters) if item is pinned
            )
    return ViewMatch(
        view=view,
        select_positions=tuple(select_positions),
        filter_positions=tuple(filter_positions),
        partition_key=partition_key,
        partition_filter=partition_filter,
    )


def _is_aggregate(view: ViewInfo) -> bool:
    """Whether ``view`` stores group rows, deferred-wrapped or not."""
    maintainer = getattr(view.maintainer, "inner", view.maintainer)
    return isinstance(maintainer, AggregateViewMaintainer)


def find_matches(query: Query, cluster) -> List[ViewMatch]:
    """All registered views that can answer ``query``."""
    matches: List[ViewMatch] = []
    for view in cluster.catalog.views.values():
        bound = getattr(view.maintainer, "bound", None)
        if bound is None:  # pragma: no cover - all maintainers carry one
            continue
        match = match_view(query, view, bound)
        if match is not None:
            matches.append(match)
    return matches
