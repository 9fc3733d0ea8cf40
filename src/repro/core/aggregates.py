"""Aggregate join views.

The paper studies plain join views; its authors' companion work extends
the same maintenance machinery to *aggregate* join views — ``SELECT g,
COUNT(*), SUM(x) FROM A, B WHERE ... GROUP BY g`` — which is also where
materialized views earn most of their keep in a warehouse.  This module
adds that extension on top of the existing delta pipeline:

1. the join delta is computed exactly as for a plain view (naive / AR /
   GI plans all work unchanged);
2. instead of materializing raw join tuples, each result folds into its
   group's running aggregates: +1/-1 to COUNT, ±value to SUM;
3. each group row lives on the node its group key hashes to, so applying
   a group's contribution is one probe + one write there;
4. a group whose COUNT reaches zero is removed — which is why COUNT is
   always maintained, even when not selected (the classic requirement for
   deletable SUM/AVG views).

Supported aggregates: COUNT, SUM, AVG (stored as SUM plus the shared
COUNT; divided on read).  MIN/MAX are deliberately out: they are not
self-maintainable under deletions without auxiliary per-group state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster.catalog import ViewInfo
from ..cluster.membership import _check_no_open_scope
from ..costs import Op, Tag
from ..storage.index import LocalIndex
from ..storage.schema import Column, Row, Schema
from .delta import Delta
from .maintenance import JoinStrategy, JoinViewMaintainer, MaintenanceMethod
from .view import BoundView, JoinViewDefinition, SelectItem, ViewDefinitionError


class AggregateFunction(enum.Enum):
    COUNT = "count"
    SUM = "sum"
    AVG = "avg"


@dataclass(frozen=True)
class Aggregate:
    """One aggregate output: ``function(relation.column) AS name``.

    COUNT takes no input column (``COUNT(*)``); SUM/AVG need a numeric
    input column from one of the view's relations.
    """

    function: AggregateFunction
    name: str
    source: Optional[SelectItem] = None

    def __post_init__(self) -> None:
        if self.function is AggregateFunction.COUNT:
            if self.source is not None:
                raise ViewDefinitionError("COUNT(*) takes no input column")
        elif self.source is None:
            raise ViewDefinitionError(
                f"{self.function.value.upper()} needs an input column"
            )


@dataclass(frozen=True)
class AggregateSpec:
    """GROUP BY columns plus the aggregate outputs."""

    group_by: Tuple[SelectItem, ...]
    aggregates: Tuple[Aggregate, ...]

    def __post_init__(self) -> None:
        if not self.group_by:
            raise ViewDefinitionError("aggregate views need GROUP BY columns")
        if not self.aggregates:
            raise ViewDefinitionError("aggregate views need at least one aggregate")
        names = [a.name for a in self.aggregates]
        if len(set(names)) != len(names):
            raise ViewDefinitionError(f"duplicate aggregate names: {names}")

    def needed_items(self) -> List[SelectItem]:
        """Every (relation, column) the join delta must carry."""
        items = list(self.group_by)
        for aggregate in self.aggregates:
            if aggregate.source is not None and aggregate.source not in items:
                items.append(aggregate.source)
        return items


class AggregateViewMaintainer(JoinViewMaintainer):
    """Maintains grouped aggregates from the join delta.

    The stored row layout is::

        (group columns..., _count, sum columns...)

    ``_count`` is the group's join-tuple multiplicity (doubles as COUNT(*)
    and as the AVG divisor); one sum column exists per distinct SUM/AVG
    input.  ``read_rows`` projects this physical layout onto the declared
    outputs.
    """

    def __init__(
        self,
        cluster,
        view_info: ViewInfo,
        bound: BoundView,
        planner,
        spec: AggregateSpec,
        strategy: JoinStrategy = JoinStrategy.AUTO,
    ) -> None:
        super().__init__(cluster, view_info, bound, planner, strategy)
        self.spec = spec
        #: distinct SUM/AVG inputs, in first-appearance order
        self.sum_sources: List[SelectItem] = []
        for aggregate in spec.aggregates:
            if aggregate.source is not None and aggregate.source not in self.sum_sources:
                self.sum_sources.append(aggregate.source)

    def derive(self) -> Dict[int, List[Row]]:
        """The stored group rows recomputed from the base relations, each
        on its group's home node: ``{node: [rows]}``."""
        select = self.bound.select
        group_positions = tuple(select.index(item) for item in self.spec.group_by)
        sum_positions = tuple(select.index(item) for item in self.sum_sources)
        groups: Dict[Row, List[float]] = {}
        for row, multiplicity in self._evaluate().items():
            group = tuple(row[i] for i in group_positions)
            entry = groups.setdefault(group, [0, *([0.0] * len(sum_positions))])
            entry[0] += multiplicity
            for offset, position in enumerate(sum_positions):
                entry[1 + offset] += multiplicity * float(row[position])
        placed: Dict[int, List[Row]] = {}
        node_of_key = self.view_info.partitioner.node_of_key
        for group, entry in groups.items():
            placed.setdefault(node_of_key(group), []).append(
                group + (int(entry[0]),) + tuple(entry[1:])
            )
        return placed

    # ---------------------------------------------------------- the apply

    def apply(self, delta: Delta) -> None:
        if delta.is_empty:
            return
        # Aggregate folding rewrites view rows in place, outside the
        # superstep engine's command set: never let a worker pool keep a
        # (soon stale) replica.  Statements on relations with aggregate
        # views already drain at entry (Cluster._views_parallel_safe); this
        # covers direct calls, e.g. through a deferred wrapper's refresh().
        self.cluster._drain_parallel()
        compiled = self.planner.compiled_for(delta.relation)
        view_deletes = self._compute_join(compiled, delta.deletes)
        view_inserts = self._compute_join(compiled, delta.inserts)
        self._consume_join(compiled, view_inserts, view_deletes)

    def _consume_join(self, compiled, view_inserts, view_deletes) -> None:
        """Fold joined intermediates into per-group contributions.

        Overrides the base class's project-and-write consumption, so the
        shared multi-view path can feed an aggregate view from the same
        join intermediates as its plain siblings — the group/sum positions
        resolve through the select-independent layout, never the select.
        """
        mapper = compiled.mapper
        group_positions = tuple(
            mapper.position(relation, column) for relation, column in self.spec.group_by
        )
        sum_positions = tuple(
            mapper.position(relation, column) for relation, column in self.sum_sources
        )

        contributions: Dict[int, Dict[Row, List[float]]] = {}

        def fold(results, sign: int) -> None:
            for node, tup in results:
                group = tuple(tup[i] for i in group_positions)
                sums = [float(tup[i]) for i in sum_positions]
                per_node = contributions.setdefault(node, {})
                entry = per_node.setdefault(group, [0, *([0.0] * len(sums))])
                entry[0] += sign
                for offset, value in enumerate(sums):
                    entry[1 + offset] += sign * value

        fold(view_deletes, -1)
        fold(view_inserts, +1)
        self._apply_contributions(contributions)

    def _apply_contributions(
        self, contributions: Dict[int, Dict[Row, List[float]]]
    ) -> None:
        """Route each group's net contribution to its home node and fold it
        into the stored row there (probe + rewrite, tagged VIEW).

        Each rewrite is mirrored through the replica write hook.  The
        fragment is written directly, not through ``Node.insert`` /
        ``Node.delete_by_rowid``, because a rewrite is billed as one INSERT,
        not one per half.  Every fragment mutation records its inverse
        through the cluster's undo log: a transaction rollback (or an
        injected fault mid-statement) must restore the *aggregate* rows
        along with the base relations, or the folded counts/sums silently
        diverge from the data they summarize.
        """
        view = self.view_info
        name = view.name
        arity = len(self.spec.group_by)
        record_undo = self.cluster._record_undo
        for source_node, groups in contributions.items():
            for group, entry in groups.items():
                count_delta, sums_delta = int(entry[0]), entry[1:]
                if count_delta == 0 and all(v == 0 for v in sums_delta):
                    continue
                home = view.partitioner.node_of_key(group)
                self.cluster.network.send(source_node, home, Tag.VIEW)
                node = self.cluster.nodes[home]
                replicator = node.replicator
                fragment = node.fragment(name)
                index = fragment.index_on("_group")
                node.ledger.charge(home, Op.SEARCH, Tag.VIEW)
                rowids = index.search(group)
                if rowids:
                    rowid = rowids[0]
                    stored = fragment.table.fetch(rowid)
                    new_count = stored[arity] + count_delta
                    new_sums = [
                        stored[arity + 1 + i] + sums_delta[i]
                        for i in range(len(sums_delta))
                    ]
                    fragment.delete(rowid)
                    if replicator is not None:
                        replicator.on_write(home, name, "del", [stored], Tag.VIEW)
                    record_undo(
                        lambda f=fragment, r=rowid, t=stored: f.restore(r, t),
                        node=home, tag=Tag.VIEW, writes=1,
                        description=f"restore {name} aggregate row",
                    )
                    if new_count > 0:
                        new_row = group + (new_count,) + tuple(new_sums)
                        new_rowid = fragment.insert(new_row)
                        if replicator is not None:
                            replicator.on_write(home, name, "ins", [new_row], Tag.VIEW)
                        record_undo(
                            lambda f=fragment, r=new_rowid: f.delete(r),
                            node=home, tag=Tag.VIEW, writes=1,
                            description=f"undo {name} aggregate rewrite",
                        )
                    node.ledger.charge(home, Op.INSERT, Tag.VIEW)
                else:
                    if count_delta < 0:  # pragma: no cover - guarded upstream
                        raise ViewDefinitionError(
                            f"aggregate group {group!r} underflow in {name!r}"
                        )
                    if count_delta > 0:
                        new_row = group + (count_delta,) + tuple(sums_delta)
                        new_rowid = fragment.insert(new_row)
                        if replicator is not None:
                            replicator.on_write(home, name, "ins", [new_row], Tag.VIEW)
                        record_undo(
                            lambda f=fragment, r=new_rowid: f.delete(r),
                            node=home, tag=Tag.VIEW, writes=1,
                            description=f"undo {name} aggregate insert",
                        )
                        node.ledger.charge(home, Op.INSERT, Tag.VIEW)

    # -------------------------------------------------------------- reads

    def read_rows(self) -> List[Row]:
        """The view's declared output rows (groups + aggregate values)."""
        rows: List[Row] = []
        arity = len(self.spec.group_by)
        for node in self.cluster.nodes:
            for stored in node.scan(self.view_info.name):
                group = stored[:arity]
                count = stored[arity]
                sums = stored[arity + 1:]
                outputs: List[object] = list(group)
                for aggregate in self.spec.aggregates:
                    if aggregate.function is AggregateFunction.COUNT:
                        outputs.append(count)
                    else:
                        value = sums[self.sum_sources.index(aggregate.source)]
                        if aggregate.function is AggregateFunction.SUM:
                            outputs.append(value)
                        else:
                            outputs.append(value / count)
                rows.append(tuple(outputs))
        return rows


def aggregate_storage_schema(
    name: str, spec: AggregateSpec, bound: BoundView
) -> Schema:
    """Physical schema of the stored group rows: the group columns
    (queryable), the shared ``_count``, then one ``_sum_<i>`` per distinct
    SUM/AVG input, in first-appearance order.  A synthetic ``_group`` index
    over the group-column prefix gives each group an O(1) home-node probe.
    """
    columns = [
        Column(f"g{i}_{column}") for i, (_, column) in enumerate(spec.group_by)
    ]
    columns.append(Column("_count", int))
    seen = []
    for aggregate in spec.aggregates:
        if aggregate.source is not None and aggregate.source not in seen:
            seen.append(aggregate.source)
    for i, _ in enumerate(seen):
        columns.append(Column(f"_sum_{i}", float))
    return Schema(name, tuple(columns))


def define_aggregate_join_view(
    cluster,
    definition: JoinViewDefinition,
    spec: AggregateSpec,
    method: "MaintenanceMethod | str" = MaintenanceMethod.AUXILIARY,
    strategy: "JoinStrategy | str" = JoinStrategy.AUTO,
) -> ViewInfo:
    """CREATE an aggregate join view: ``SELECT group_by, aggregates FROM
    <definition's join> GROUP BY group_by``.

    ``definition.select`` is ignored — the needed columns are derived from
    the spec; ``definition.partitioning`` is ignored too (aggregate views
    hash-partition on the group key so each group has one home node).
    """
    _check_no_open_scope(cluster, "define_aggregate_join_view")
    cluster.catalog.ensure_name_free(definition.name)
    method = MaintenanceMethod.coerce(method)
    if isinstance(strategy, str):
        strategy = JoinStrategy(strategy)
    schemas = {
        name: cluster.catalog.relation(name).schema for name in definition.relations
    }
    join_definition = JoinViewDefinition(
        name=definition.name,
        relations=definition.relations,
        conditions=definition.conditions,
        select=tuple(spec.needed_items()),
    )
    bound = BoundView(join_definition, schemas)

    from .auxiliary import provision_auxiliary
    from .global_index import provision_global_index
    from .hybrid import provision_hybrid
    from .naive import provision_naive
    from .optimizer import MaintenancePlanner

    if method is MaintenanceMethod.NAIVE:
        provision_naive(cluster, bound)
    elif method is MaintenanceMethod.AUXILIARY:
        provision_auxiliary(cluster, bound)
    elif method is MaintenanceMethod.HYBRID:
        provision_hybrid(cluster, bound)
    else:
        provision_global_index(cluster, bound)

    storage_schema = aggregate_storage_schema(definition.name, spec, bound)
    for node in cluster.nodes:
        fragment = node.create_fragment(storage_schema)
        # The _group index maps the packed group-key tuple to its row.
        fragment.indexes["_group"] = _GroupIndex(fragment.table, "_count")
    partitioner = _GroupPartitioner(storage_schema, cluster.num_nodes, len(spec.group_by))

    planner = MaintenancePlanner(cluster, bound, method)
    view_info = ViewInfo(
        name=definition.name,
        definition=join_definition,
        schema=storage_schema,
        partitioner=partitioner,
        maintainer=None,
        method=f"aggregate/{method.value}",
    )
    maintainer = AggregateViewMaintainer(
        cluster, view_info, bound, planner, spec, strategy
    )
    view_info.maintainer = maintainer
    cluster.catalog.add_view(view_info, list(definition.relations))
    cluster._write_placed(view_info.name, [maintainer.derive()])
    return view_info


def _aggregate_maintainer(cluster, view_name: str) -> "AggregateViewMaintainer":
    """The view's aggregate maintainer, unwrapping a deferred wrapper."""
    maintainer = cluster.catalog.view(view_name).maintainer
    inner = getattr(maintainer, "inner", None)
    if inner is not None:
        maintainer = inner
    if not isinstance(maintainer, AggregateViewMaintainer):
        raise ViewDefinitionError(f"{view_name!r} is not an aggregate view")
    return maintainer


def aggregate_rows(cluster, view_name: str) -> List[Row]:
    """The declared output rows of an aggregate join view."""
    return _aggregate_maintainer(cluster, view_name).read_rows()


def recompute_aggregate(cluster, view_name: str) -> List[Row]:
    """Ground truth: the aggregate outputs recomputed from the bases."""
    maintainer = _aggregate_maintainer(cluster, view_name)
    bound = maintainer.bound
    spec = maintainer.spec
    counter = bound.evaluate(
        {name: cluster.scan_relation(name) for name in bound.definition.relations}
    )
    group_positions = tuple(bound.select.index(item) for item in spec.group_by)
    groups: Dict[Row, Dict[SelectItem, float]] = {}
    counts: Dict[Row, int] = {}
    for row, multiplicity in counter.items():
        group = tuple(row[i] for i in group_positions)
        counts[group] = counts.get(group, 0) + multiplicity
        sums = groups.setdefault(group, {})
        for item in maintainer.sum_sources:
            position = bound.select.index(item)
            sums[item] = sums.get(item, 0.0) + multiplicity * float(row[position])
    rows: List[Row] = []
    for group, count in counts.items():
        outputs: List[object] = list(group)
        for aggregate in spec.aggregates:
            if aggregate.function is AggregateFunction.COUNT:
                outputs.append(count)
            elif aggregate.function is AggregateFunction.SUM:
                outputs.append(groups[group][aggregate.source])
            else:
                outputs.append(groups[group][aggregate.source] / count)
        rows.append(tuple(outputs))
    return rows


class _GroupIndex(LocalIndex):
    """The ``_group`` index: a :class:`LocalIndex` keyed by the stored
    row's group-column prefix — every column before ``_count``, the index
    column."""

    def key_of(self, row: Row) -> Row:
        return row[: self._position]


class _GroupPartitioner:
    """Hash placement on the packed group-key tuple."""

    def __init__(self, schema: Schema, num_nodes: int, group_arity: int) -> None:
        self.schema = schema
        self.num_nodes = num_nodes
        self.group_arity = group_arity
        self.column = "_group"

    @property
    def is_hash(self) -> bool:
        return True

    def node_of_key(self, key) -> int:
        from ..cluster.partitioning import stable_hash

        return stable_hash(tuple(key)) % self.num_nodes

    def node_of_row(self, row: Row) -> int:
        return self.node_of_key(row[: self.group_arity])

    def rebind(self, num_nodes: int) -> "_GroupPartitioner":
        """The same placement against a changed node count (modulo remap)."""
        return _GroupPartitioner(self.schema, num_nodes, self.group_arity)
