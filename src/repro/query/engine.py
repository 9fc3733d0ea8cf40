"""Query execution over the parallel cluster, with and without views.

Two physical strategies, mirroring the warehouse trade-off the paper's
introduction describes:

* **from the base relations** — parallel repartition hash joins: every
  participating fragment is scanned, both sides of each join are hash
  redistributed on the join attribute, and the joins run node-local;
* **from a materialized view** — a scan of the view's fragments, or a
  single-node index probe when the query pins the view's partitioning
  attribute with an equality filter (the point of ``PARTITIONED ON``).

``answer`` prices the alternatives and runs the cheapest — making the
speed-up that justifies paying for view maintenance directly measurable.
What it learns about a query's shape (matching views, positions, resolved
operators, pinning filters) is compiled once per catalog version; each
call binds only the filter values.  All query work is charged under
:data:`~repro.costs.Tag.QUERY`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from ..cluster.catalog import ViewInfo
from ..cluster.partitioning import stable_hash
from ..costs import CostSnapshot, CostWindow, Tag
from ..storage.schema import Row
from .matching import ViewMatch, find_matches
from .query import Query

#: Intermediate rows are dicts keyed by (relation, column) — clarity over
#: raw offsets; query paths are read-side and not TW-critical.
_Env = Dict[Tuple[str, str], object]


@dataclass
class QueryResult:
    """Rows plus how they were obtained and what it cost."""

    rows: List[Row]
    plan: str
    #: ledger cells copied around the read; diffed on first ``snapshot``
    window: CostWindow = field(repr=False)

    @property
    def snapshot(self) -> CostSnapshot:
        """The work the read charged — nothing charged after it returned."""
        return self.window.snapshot

    @property
    def cost_ios(self) -> float:
        return self.snapshot.total_workload([Tag.QUERY])

    @property
    def response_ios(self) -> float:
        return self.snapshot.response_time([Tag.QUERY])


@dataclass(frozen=True)
class _ViewOption:
    """One view that answers a query shape, compiled for it."""

    view: ViewInfo
    select_positions: Tuple[int, ...]
    #: (view-row position, resolved operator, index in ``query.filters``)
    checks: Tuple[Tuple[int, Callable[[object, object], bool], int], ...]
    #: index in ``query.filters`` of the filter pinning the view's
    #: partition column, if any
    pin: Optional[int]


@dataclass(frozen=True)
class _ReadPlan:
    """What :meth:`QueryEngine.answer` knows about a query shape between
    two catalog changes: the filter values are all it still has to bind."""

    views: Tuple[_ViewOption, ...]
    #: each query relation, and whether an equality filter pins its
    #: partition column (the base join then reads one node of it)
    relations: Tuple[Tuple[str, bool], ...]


class QueryEngine:
    """Answers queries against one cluster."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        #: query shape -> read plan, all compiled at catalog ``_version``
        self._plans: Dict[Tuple, _ReadPlan] = {}
        self._version = -1

    # ------------------------------------------------------------- public

    def answer(self, query: Query) -> QueryResult:
        """Run ``query`` the cheapest known way (view probe, view scan, or
        base join).

        Ties go to the base join, and among views to the first cheapest
        in catalog order.  Views are priced first so the base estimate
        can stop adding pages once it exceeds the best view.
        """
        plan = self._plan_for(query)
        if not plan.views:
            return self.answer_from_base(query)
        values = [item.value for item in query.filters]
        best = best_key = None
        best_cost = math.inf
        for option in plan.views:
            key = None if option.pin is None else values[option.pin]
            if key is not None:
                cost = 2.0  # one SEARCH + a page of matches
            else:
                cost = float(max(1, self.cluster.relation_pages(option.view.name)))
            if cost < best_cost:
                best, best_cost, best_key = option, cost, key
        if self._base_costs_at_most(plan, best_cost):
            return self.answer_from_base(query)
        checks = tuple(
            (position, compare, values[index])
            for position, compare, index in best.checks
        )
        return self._read_view(best.view, best.select_positions, checks, best_key)

    def answer_from_base(self, query: Query) -> QueryResult:
        """Parallel repartition hash join over the base relations."""
        obs = self.cluster.obs
        with obs.span("query", plan="base_join") as root:
            window = self.cluster.ledger.window()
            with obs.span("base_join", relations=len(query.relations)):
                env_rows = self._join_base(query)
            rows = self._project(query, env_rows)
            window.close()
            root.tag(rows=len(rows))
        if obs.enabled:
            obs.observe_span_latency(root, kind="query", plan="base_join")
        return QueryResult(rows=rows, plan="base join", window=window)

    def answer_from_view(self, query: Query, match: ViewMatch) -> QueryResult:
        """Scan or probe a materialized view."""
        checks = tuple(
            (position, flt.comparison.evaluate, flt.value)
            for position, flt in match.filter_positions
        )
        return self._read_view(
            match.view, match.select_positions, checks, match.partition_key
        )

    # ------------------------------------------------------- read plans

    def _plan_for(self, query: Query) -> _ReadPlan:
        version = self.cluster.catalog.version
        if version != self._version:
            self._plans.clear()  # every cached plan predates a catalog change
            self._version = version
        shape = (
            query.relations,
            query.select,
            query.conditions,
            tuple((item.relation, item.column, item.comparison)
                  for item in query.filters),
        )
        plan = self._plans.get(shape)
        if plan is None:
            plan = self._plans[shape] = self._compile(query)
        return plan

    def _compile(self, query: Query) -> _ReadPlan:
        """Match the views and resolve the filters of ``query``'s shape.

        Only shape-level facts go in: which views match, positions, the
        operators, and which filter pins what.  Node, partitioner and page
        facts change without a catalog change (membership, writes) and are
        read on every call.
        """
        views = tuple(
            _ViewOption(
                view=match.view,
                select_positions=match.select_positions,
                # match_view keeps one entry per query filter, in order.
                checks=tuple(
                    (position, flt.comparison.evaluate, index)
                    for index, (position, flt) in enumerate(match.filter_positions)
                ),
                pin=match.partition_filter,
            )
            for match in find_matches(query, self.cluster)
        )
        catalog = self.cluster.catalog
        relations = []
        for relation in query.relations:
            column = catalog.relation(relation).partition_column
            pinned = bool(column) and query.equality_filter_on(relation, column) is not None
            relations.append((relation, pinned))
        return _ReadPlan(views=views, relations=tuple(relations))

    def _base_costs_at_most(self, plan: _ReadPlan, limit: float) -> bool:
        """Whether the base join's estimate — pages touched: every relation
        read in full unless an equality filter pins its partition column,
        which costs one probe at one node — is at most ``limit``.

        Pages are added fragment by fragment, stopping once over ``limit``.
        """
        total = 0.0
        nodes = self.cluster.nodes
        for relation, pinned in plan.relations:
            counts = (1.0,) if pinned else (
                node.fragment_pages(relation)
                for node in nodes if node.has_fragment(relation)
            )
            for count in counts:
                total += count
                if total > limit:
                    return False
        return True

    # ------------------------------------------------------ view execution

    def _read_view(
        self,
        view: ViewInfo,
        positions: Tuple[int, ...],
        checks: Tuple[Tuple[int, Callable[[object, object], bool], object], ...],
        key: Optional[object],
    ) -> QueryResult:
        """Probe the view's one partition for ``key``, or scan it all when
        no key pins it; keep rows passing every ``(position, compare,
        value)`` check and project ``positions``."""
        cluster = self.cluster
        obs = cluster.obs
        name = view.name
        physical = "view_probe" if key is not None else "view_scan"
        with obs.span("query", plan=physical, view=name) as root:
            window = cluster.ledger.window()
            with obs.span(physical, view=name):
                if key is not None:
                    partitioner = view.partitioner
                    node = cluster.nodes[partitioner.node_of_key(key)]
                    raw = node.index_probe(name, partitioner.column, key, Tag.QUERY)
                    plan = f"view probe ({name})"
                else:
                    raw = []
                    for node in cluster.nodes:
                        raw.extend(node.scan(name, Tag.QUERY))
                    plan = f"view scan ({name})"
            if len(checks) == 1:
                ((position, compare, value),) = checks
                raw = [row for row in raw if compare(row[position], value)]
            elif checks:
                raw = [
                    row for row in raw
                    if all(compare(row[position], value)
                           for position, compare, value in checks)
                ]
            # One compiled projection per read, not one generator per
            # row; a single-column select still yields 1-tuples.
            if len(positions) == 1:
                only = positions[0]
                rows = [(row[only],) for row in raw]
            else:
                rows = list(map(itemgetter(*positions), raw))
            window.close()
            root.tag(rows=len(rows))
        if obs.enabled:
            obs.observe_span_latency(root, kind="query", plan=physical)
        return QueryResult(rows=rows, plan=plan, window=window)

    # ------------------------------------------------------ base execution

    def _relation_rows(self, query: Query, relation: str) -> List[_Env]:
        """Scan (or probe) one relation, applying its own filters.

        An equality filter on the relation's partition column narrows the
        scan to one node; an equality filter on an indexed column becomes
        index probes; otherwise every fragment is scanned.
        """
        info = self.cluster.catalog.relation(relation)
        schema = info.schema
        filters = [f for f in query.filters if f.relation == relation]

        def env_of(row: Row) -> _Env:
            return {
                (relation, column): value
                for column, value in zip(schema.column_names, row)
            }

        def passes(row: Row) -> bool:
            return all(
                flt.matches(row[schema.index_of(flt.column)]) for flt in filters
            )

        pinned = (
            query.equality_filter_on(relation, info.partition_column)
            if info.partition_column
            else None
        )
        if pinned is not None:
            node = self.cluster.nodes[info.partitioner.node_of_key(pinned.value)]
            if info.partition_column in info.indexes:
                rows = node.index_probe(
                    relation, info.partition_column, pinned.value, Tag.QUERY
                )
            else:
                rows = [
                    row for row in node.scan(relation, Tag.QUERY)
                    if row[schema.index_of(info.partition_column)] == pinned.value
                ]
            return [env_of(row) for row in rows if passes(row)]
        for flt in filters:
            if flt.comparison.value == "=" and flt.column in info.indexes:
                rows = []
                for node in self.cluster.nodes:
                    rows.extend(
                        node.index_probe(relation, flt.column, flt.value, Tag.QUERY)
                    )
                return [env_of(row) for row in rows if passes(row)]
        rows = []
        for node in self.cluster.nodes:
            rows.extend(node.scan(relation, Tag.QUERY))
        return [env_of(row) for row in rows if passes(row)]

    def _join_base(self, query: Query) -> List[_Env]:
        order = self._join_order(query)
        current = self._relation_rows(query, order[0])
        joined = [order[0]]
        for partner in order[1:]:
            connecting = [
                condition for condition in query.conditions
                if condition.touches(partner)
                and condition.other(partner)[0] in joined
            ]
            probe, extras = connecting[0], connecting[1:]
            partner_rows = self._relation_rows(query, partner)
            current = self._repartition_join(
                current, partner_rows, probe, extras, partner
            )
            joined.append(partner)
        return current

    def _repartition_join(
        self, left: List[_Env], right: List[_Env], probe, extras, partner
    ) -> List[_Env]:
        """Hash-redistribute both inputs on the join key and join locally.

        Each row crosses the network once (one SEND per row, free when it
        already sits on its key's node — we charge from node 0 as a neutral
        origin because intermediate placement is not tracked per-row here;
        SEND is zero-weighted in the paper's I/O accounting anyway).
        """
        left_key = probe.other(partner)
        right_key = (partner, probe.column_of(partner))
        buckets: Dict[int, Tuple[List[_Env], List[_Env]]] = {}
        for env in left:
            node = self._node_for(env[left_key])
            self.cluster.network.send(0, node, Tag.QUERY)
            buckets.setdefault(node, ([], []))[0].append(env)
        for env in right:
            node = self._node_for(env[right_key])
            self.cluster.network.send(0, node, Tag.QUERY)
            buckets.setdefault(node, ([], []))[1].append(env)
        results: List[_Env] = []
        for left_part, right_part in buckets.values():
            table: Dict[object, List[_Env]] = {}
            for env in right_part:
                table.setdefault(env[right_key], []).append(env)
            for env in left_part:
                for partner_env in table.get(env[left_key], ()):
                    merged = {**env, **partner_env}
                    if all(
                        merged[condition.other(partner)]
                        == merged[(partner, condition.column_of(partner))]
                        for condition in extras
                    ):
                        results.append(merged)
        return results

    def _node_for(self, key: object) -> int:
        return stable_hash(key) % self.cluster.num_nodes

    def _join_order(self, query: Query) -> List[str]:
        order = [query.relations[0]]
        remaining = list(query.relations[1:])
        while remaining:
            for candidate in remaining:
                if any(
                    condition.touches(candidate)
                    and condition.other(candidate)[0] in order
                    for condition in query.conditions
                ):
                    order.append(candidate)
                    remaining.remove(candidate)
                    break
        return order

    @staticmethod
    def _project(query: Query, envs: List[_Env]) -> List[Row]:
        return [tuple(env[item] for item in query.select) for env in envs]
