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
All query work is charged under :data:`~repro.costs.Tag.QUERY`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from ..costs import CostSnapshot, Op, Tag
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
    snapshot: CostSnapshot

    @property
    def cost_ios(self) -> float:
        return self.snapshot.total_workload([Tag.QUERY])

    @property
    def response_ios(self) -> float:
        return self.snapshot.response_time([Tag.QUERY])


class QueryEngine:
    """Answers queries against one cluster."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    # ------------------------------------------------------------- public

    def answer(self, query: Query) -> QueryResult:
        """Run ``query`` the cheapest known way (view probe, view scan, or
        base join)."""
        options: List[Tuple[float, str]] = [
            (self._estimate_base_join(query), "base")
        ]
        matches = find_matches(query, self.cluster)
        for match in matches:
            options.append(
                (self._estimate_view(match), f"view:{match.view.name}")
            )
        _, choice = min(options, key=lambda pair: pair[0])
        if choice == "base":
            return self.answer_from_base(query)
        view_name = choice.split(":", 1)[1]
        match = next(m for m in matches if m.view.name == view_name)
        return self.answer_from_view(query, match)

    def answer_from_base(self, query: Query) -> QueryResult:
        """Parallel repartition hash join over the base relations."""
        obs = self.cluster.obs
        with obs.span("query", plan="base_join") as root:
            with self.cluster.ledger.measure() as measured:
                with obs.span("base_join", relations=len(query.relations)):
                    env_rows = self._join_base(query)
                rows = self._project(query, env_rows)
            root.tag(rows=len(rows))
        if obs.enabled:
            obs.observe_span_latency(root, kind="query", plan="base_join")
        return QueryResult(rows=rows, plan="base join", snapshot=measured.snapshot)

    def answer_from_view(self, query: Query, match: ViewMatch) -> QueryResult:
        """Scan or probe a materialized view."""
        obs = self.cluster.obs
        physical = "view_probe" if match.partition_key is not None else "view_scan"
        with obs.span("query", plan=physical, view=match.view.name) as root:
            with self.cluster.ledger.measure() as measured:
                with obs.span(physical, view=match.view.name):
                    if match.partition_key is not None:
                        raw = self._probe_view(match)
                        plan = f"view probe ({match.view.name})"
                    else:
                        raw = self._scan_view(match)
                        plan = f"view scan ({match.view.name})"
                filters = match.filter_positions
                if filters:
                    raw = [
                        row for row in raw
                        if all(flt.matches(row[position]) for position, flt in filters)
                    ]
                # One compiled projection per match, not one generator per
                # row; a single-column select still yields 1-tuples.
                positions = match.select_positions
                if len(positions) == 1:
                    only = positions[0]
                    rows = [(row[only],) for row in raw]
                else:
                    rows = list(map(itemgetter(*positions), raw))
            root.tag(rows=len(rows))
        if obs.enabled:
            obs.observe_span_latency(root, kind="query", plan=physical)
        return QueryResult(rows=rows, plan=plan, snapshot=measured.snapshot)

    # ------------------------------------------------------ view execution

    def _probe_view(self, match: ViewMatch) -> List[Row]:
        view = match.view
        column = view.partitioner.column
        node_id = view.partitioner.node_of_key(match.partition_key)
        return self.cluster.nodes[node_id].index_probe(
            view.name, column, match.partition_key, Tag.QUERY
        )

    def _scan_view(self, match: ViewMatch) -> List[Row]:
        rows: List[Row] = []
        for node in self.cluster.nodes:
            rows.extend(node.scan(match.view.name, Tag.QUERY))
        return rows

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
        from ..cluster.partitioning import stable_hash

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

    # ------------------------------------------------------------ pricing

    def _estimate_base_join(self, query: Query) -> float:
        """Pages touched: every participating relation is read in full
        unless an equality filter pins its partition column."""
        total = 0.0
        for relation in query.relations:
            info = self.cluster.catalog.relation(relation)
            pages = self.cluster.relation_pages(relation)
            pinned = (
                query.equality_filter_on(relation, info.partition_column)
                if info.partition_column
                else None
            )
            if pinned is not None:
                total += 1.0  # one probe/partial scan at one node
            else:
                total += pages
        return total

    def _estimate_view(self, match: ViewMatch) -> float:
        if match.partition_key is not None:
            return 2.0  # one SEARCH + a page of matches
        return float(max(1, self.cluster.relation_pages(match.view.name)))
