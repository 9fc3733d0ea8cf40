"""The maintenance engine shared by all three methods.

The three methods differ in *where a delta tuple must travel* and *what is
probed there*; that is captured entirely by the access paths in a
:class:`~repro.core.multiway.MaintenancePlan`.  This module executes plans:
it walks the hops per delta tuple (index-nested-loops) or per batch
(sort-merge), charges every SEND/SEARCH/FETCH/INSERT to the ledger, and
applies the resulting view delta.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..cluster.catalog import ViewInfo
from ..costs import Op, Tag
from ..faults.errors import FaultError
from ..storage.schema import Row
from .delta import Delta, PlacedRow
from .multiway import (
    AuxiliaryAccess,
    BaseAccess,
    CompiledPlan,
    GlobalIndexAccess,
    Hop,
    MaintenancePlan,
)
from .view import BoundView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import Cluster
    from .optimizer import MaintenancePlanner


class MaintenanceMethod(enum.Enum):
    """The paper's three methods, plus the §4 per-relation hybrid."""

    NAIVE = "naive"
    AUXILIARY = "auxiliary"
    GLOBAL_INDEX = "global_index"
    HYBRID = "hybrid"

    @classmethod
    def coerce(cls, value: "MaintenanceMethod | str") -> "MaintenanceMethod":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown maintenance method {value!r}; "
                f"expected one of {[m.value for m in cls]}"
            ) from None


class JoinStrategy(enum.Enum):
    """How delta tuples are joined with the partner at each hop."""

    AUTO = "auto"                    # the paper's cost-based choice
    INDEX_NESTED_LOOPS = "inl"       # per-tuple index probes
    SORT_MERGE = "sort_merge"        # batch scan/sort of the partner


#: An intermediate result: the node it currently resides on plus the
#: concatenated values joined so far.
Intermediate = Tuple[int, Row]


class JoinViewMaintainer:
    """Incrementally maintains one join view under one method."""

    def __init__(
        self,
        cluster: "Cluster",
        view_info: ViewInfo,
        bound: BoundView,
        planner: "MaintenancePlanner",
        strategy: JoinStrategy = JoinStrategy.AUTO,
    ) -> None:
        self.cluster = cluster
        self.view_info = view_info
        self.bound = bound
        self.planner = planner
        self.strategy = strategy

    @property
    def method(self) -> MaintenanceMethod:
        return self.planner.method

    def derive(self) -> Dict[int, List[Row]]:
        """The view's stored rows recomputed from the base relations, each
        on the node the view's partitioner places it: ``{node: [rows]}``.

        The one definition of a view's offline build: the DDL backfill and
        :meth:`repro.faults.ConsistencyAuditor.repair` both write it.
        """
        placed: Dict[int, List[Row]] = {}
        node_of_row = self.view_info.partitioner.node_of_row
        for row, multiplicity in self._evaluate().items():
            for _ in range(multiplicity):
                placed.setdefault(node_of_row(row), []).append(row)
        return placed

    def _evaluate(self) -> Counter:
        """The defining join over the current base contents (a bag)."""
        return self.bound.evaluate({
            name: self.cluster.scan_relation(name)
            for name in self.bound.definition.relations
        })

    # ------------------------------------------------------------- driver

    def apply(self, delta: Delta) -> None:
        """Propagate a base-relation delta into the view.

        A :class:`~repro.faults.errors.FaultError` escaping the join or the
        view write is annotated with the view and method before re-raising,
        so rolled-back statements say *which* maintenance hop died.
        """
        if delta.is_empty:
            return
        try:
            with self.cluster.obs.span(
                "maintain",
                view=self.view_info.name,
                method=self.method.value,
                relation=delta.relation,
                inserts=len(delta.inserts),
                deletes=len(delta.deletes),
            ):
                compiled = self.planner.compiled_for(delta.relation)
                view_deletes = self._compute_join(compiled, delta.deletes)
                view_inserts = self._compute_join(compiled, delta.inserts)
                self._consume_join(compiled, view_inserts, view_deletes)
        except FaultError as exc:
            exc.add_context(
                f"maintaining view {self.view_info.name!r} "
                f"({self.method.value}) on delta of {delta.relation!r}"
            )
            raise

    def _consume_join(
        self,
        compiled: CompiledPlan,
        view_inserts: List[Intermediate],
        view_deletes: List[Intermediate],
    ) -> None:
        """Turn fully-joined intermediates into this view's delta.

        Split out of :meth:`apply` so the shared multi-view path can
        compute the join once per group of same-clause views and fan the
        intermediates out through each member's own projection; subclasses
        (aggregates) override this to fold instead of project.
        """
        to_view_row = compiled.mapper.to_view_row
        self.cluster.apply_view_delta(
            self.view_info,
            inserts=[(node, to_view_row(tup)) for node, tup in view_inserts],
            deletes=[(node, to_view_row(tup)) for node, tup in view_deletes],
        )

    def _parallel_hop_engine(self):
        """The running worker pool, when this maintainer's hops may use it.

        Only exact :class:`JoinViewMaintainer` instances qualify: subclasses
        may override hop behavior in ways the superstep ops don't model.
        Never *starts* a pool — a statement that began serially stays serial.
        """
        if type(self) is not JoinViewMaintainer:
            return None
        return self.cluster._parallel_running()

    def _compute_join(
        self,
        compiled: CompiledPlan,
        placed: Sequence[PlacedRow],
    ) -> List[Intermediate]:
        """Join delta rows through every hop of the plan."""
        if not placed:
            return []
        batch = self.cluster._bulk_ok()
        engine = self._parallel_hop_engine() if batch else None
        obs = self.cluster.obs
        state: List[Intermediate] = [(p.node, p.row) for p in placed]
        for hop_index, chop in enumerate(compiled.hops):
            if not state:
                break
            hop = chop.hop
            use_sort_merge = self._pick_sort_merge(hop, len(state))
            key_position = chop.key_position
            filters = chop.filters
            try:
                with obs.span(
                    "hop",
                    index=hop_index,
                    partner=hop.partner,
                    algo="sort_merge" if use_sort_merge else "inl",
                    mode=(
                        "parallel" if engine is not None
                        else "batched" if batch else "reference"
                    ),
                    fanin=len(state),
                ) as span:
                    if obs.enabled:
                        from ..obs.collect import key_digest

                        span.tag(keys=key_digest(
                            {prefix[key_position] for _, prefix in state}
                        ))
                    if use_sort_merge:
                        state = self._hop_sort_merge(
                            hop, state, key_position, filters, batch=batch,
                            engine=engine,
                        )
                    elif batch:
                        state = self._hop_index_nested_loops_batched(
                            hop, state, key_position, filters, engine=engine
                        )
                    else:
                        state = self._hop_index_nested_loops(
                            hop, state, key_position, filters
                        )
                    span.tag(fanout=len(state))
            except FaultError as exc:
                exc.add_context(
                    f"hop {hop_index} against {hop.partner!r} "
                    f"({'sort-merge' if use_sort_merge else 'index-nested-loops'})"
                )
                raise
        return state

    def _pick_sort_merge(self, hop: Hop, state_size: int) -> bool:
        if self.strategy is JoinStrategy.INDEX_NESTED_LOOPS:
            return False
        if self.strategy is JoinStrategy.SORT_MERGE:
            return True
        return self.planner.prefer_sort_merge(hop, state_size)

    @staticmethod
    def _passes(
        filters, prefix: Row, partner_row: Row
    ) -> bool:
        return all(
            prefix[left_position] == partner_row[partner_position]
            for left_position, partner_position in filters
        )

    # --------------------------------------------- index-nested-loops hops

    def _hop_index_nested_loops(
        self,
        hop: Hop,
        state: List[Intermediate],
        key_position: int,
        filters,
    ) -> List[Intermediate]:
        access = hop.access
        if isinstance(access, BaseAccess):
            if access.broadcast:
                return self._inl_broadcast(hop, state, key_position, filters, access)
            return self._inl_colocated(
                hop, state, key_position, filters, access.fragment_name, access.column,
                self._base_key_router(access),
            )
        if isinstance(access, AuxiliaryAccess):
            aux = self.cluster.catalog.auxiliary(access.ar_name)
            return self._inl_colocated(
                hop, state, key_position, filters, access.ar_name, access.column,
                aux.partitioner.node_of_key,
            )
        if isinstance(access, GlobalIndexAccess):
            return self._inl_global_index(hop, state, key_position, filters, access)
        raise TypeError(f"unknown access path {access!r}")

    def _base_key_router(self, access: BaseAccess):
        info = self.cluster.catalog.relation(access.relation)
        return info.partitioner.node_of_key

    def _inl_broadcast(
        self, hop, state, key_position, filters, access: BaseAccess
    ) -> List[Intermediate]:
        """The naive method's hop: every delta tuple visits every node and
        probes the partner's local index there (Figure 2)."""
        results: List[Intermediate] = []
        for node, prefix in state:
            key = prefix[key_position]
            for destination in self.cluster.network.broadcast(node, Tag.MAINTAIN):
                matches = self.cluster.nodes[destination].index_probe(
                    access.relation, access.column, key, Tag.MAINTAIN
                )
                for partner_row in matches:
                    if self._passes(filters, prefix, partner_row):
                        results.append((destination, prefix + partner_row))
        return results

    def _inl_colocated(
        self, hop, state, key_position, filters, fragment_name, column, router
    ) -> List[Intermediate]:
        """The AR method's hop (and every method's hop when the partner is
        partitioned on the join attribute): one SEND to the owning node, one
        probe there (Figure 4)."""
        results: List[Intermediate] = []
        for node, prefix in state:
            key = prefix[key_position]
            destination = router(key)
            self.cluster.network.send(node, destination, Tag.MAINTAIN)
            matches = self.cluster.nodes[destination].index_probe(
                fragment_name, column, key, Tag.MAINTAIN
            )
            for partner_row in matches:
                if self._passes(filters, prefix, partner_row):
                    results.append((destination, prefix + partner_row))
        return results

    def _inl_global_index(
        self, hop, state, key_position, filters, access: GlobalIndexAccess
    ) -> List[Intermediate]:
        """The GI method's hop: probe the GI partition at the key's home
        node, then visit only the K nodes owning matches and fetch there by
        rowid (Figure 6)."""
        gi = self.cluster.catalog.global_index(access.gi_name)
        results: List[Intermediate] = []
        for node, prefix in state:
            key = prefix[key_position]
            home = gi.home_node(key)
            self.cluster.network.send(node, home, Tag.MAINTAIN)
            grouped = self.cluster.nodes[home].gi_probe(access.gi_name, key, Tag.MAINTAIN)
            for owner, grids in grouped.items():
                self.cluster.network.send(home, owner, Tag.MAINTAIN)
                rows = self.cluster.nodes[owner].fetch_by_rowids(
                    access.relation,
                    [grid.rowid for grid in grids],
                    Tag.MAINTAIN,
                    clustered_on_page=access.distributed_clustered,
                )
                for partner_row in rows:
                    if self._passes(filters, prefix, partner_row):
                        results.append((owner, prefix + partner_row))
        return results

    # ------------------------------------- batched index-nested-loops hops

    def _hop_index_nested_loops_batched(
        self,
        hop: Hop,
        state: List[Intermediate],
        key_position: int,
        filters,
        engine=None,
    ) -> List[Intermediate]:
        """The batched fast path: one partition pass groups the in-flight
        state by (destination, join key), each distinct key is probed once
        per statement (the probe memo), repeats are *charged* without being
        re-executed, and cross-node traffic leaves as per-destination
        envelopes.  Charge totals, message counters, and the result order
        are identical to :meth:`_hop_index_nested_loops` — see DESIGN.md
        § Batched execution engine for the equivalence argument.

        With ``engine`` (a running worker pool) the distinct-key probes
        execute on the node workers as one superstep instead of inline; the
        grouping pass, repeat charging, and result assembly are byte-for-
        byte the same code, so equivalence is inherited (DESIGN.md § 8).
        """
        access = hop.access
        if isinstance(access, BaseAccess):
            if access.broadcast:
                return self._inl_broadcast_batched(
                    hop, state, key_position, filters, access, engine=engine
                )
            return self._inl_colocated_batched(
                hop, state, key_position, filters, access.fragment_name,
                access.column, self._base_key_router(access), engine=engine,
            )
        if isinstance(access, AuxiliaryAccess):
            aux = self.cluster.catalog.auxiliary(access.ar_name)
            return self._inl_colocated_batched(
                hop, state, key_position, filters, access.ar_name,
                access.column, aux.partitioner.node_of_key, engine=engine,
            )
        if isinstance(access, GlobalIndexAccess):
            return self._inl_global_index_batched(
                hop, state, key_position, filters, access, engine=engine
            )
        raise TypeError(f"unknown access path {access!r}")

    def _inl_colocated_batched(
        self, hop, state, key_position, filters, fragment_name, column, router,
        engine=None,
    ) -> List[Intermediate]:
        """Batched AR / co-located hop: route once, probe distinct keys once."""
        network = self.cluster.network
        nodes = self.cluster.nodes
        send_counts: Dict[Tuple[int, int], int] = {}
        occurrences: Dict[Tuple[int, object], int] = {}
        routed: List[Tuple[Row, Tuple[int, object]]] = []
        route_cache: Dict[object, int] = {}
        for node, prefix in state:
            key = prefix[key_position]
            destination = route_cache.get(key)
            if destination is None:
                destination = route_cache[key] = router(key)
            link = (node, destination)
            send_counts[link] = send_counts.get(link, 0) + 1
            slot = (destination, key)
            occurrences[slot] = occurrences.get(slot, 0) + 1
            routed.append((prefix, slot))
        for (src, dst), count in send_counts.items():
            network.send_many(src, dst, count, Tag.MAINTAIN)
        memo: Dict[Tuple[int, object], List[Row]] = {}
        ctx = self.cluster._shared_ctx
        pending = occurrences
        if ctx is not None:
            # Shared multi-view statement: a (fragment, column, node, key)
            # probe answered for an earlier view group this statement is
            # reused verbatim — no storage touch and no charge; the group
            # that executed it paid (DESIGN.md § 13, charge attribution).
            pending = {}
            for slot, times in occurrences.items():
                cached = ctx.lookup(fragment_name, column, slot[0], slot[1])
                if cached is not None:
                    memo[slot] = cached
                else:
                    pending[slot] = times
        if engine is not None:
            # One superstep: every distinct (destination, key) probe runs on
            # its node's worker; repeats charge through the coordinator's
            # mirror nodes exactly as the inline path below does.
            slots = list(pending)
            probe_results = engine.run_ops([
                ("probe", destination, fragment_name, column, key, Tag.MAINTAIN)
                for destination, key in slots
            ])
            for slot, matches in zip(slots, probe_results):
                memo[slot] = matches
                times = pending[slot]
                if times > 1:
                    nodes[slot[0]].charge_index_probe(
                        fragment_name, column, len(matches), Tag.MAINTAIN,
                        times=times - 1,
                    )
        else:
            for slot, times in pending.items():
                destination, key = slot
                matches = nodes[destination].index_probe(
                    fragment_name, column, key, Tag.MAINTAIN
                )
                memo[slot] = matches
                if times > 1:
                    nodes[destination].charge_index_probe(
                        fragment_name, column, len(matches), Tag.MAINTAIN,
                        times=times - 1,
                    )
        if ctx is not None:
            for slot in pending:
                ctx.store(fragment_name, column, slot[0], slot[1], memo[slot])
        results: List[Intermediate] = []
        passes = self._passes
        for prefix, slot in routed:
            destination = slot[0]
            for partner_row in memo[slot]:
                if not filters or passes(filters, prefix, partner_row):
                    results.append((destination, prefix + partner_row))
        return results

    def _inl_broadcast_batched(
        self, hop, state, key_position, filters, access: BaseAccess,
        engine=None,
    ) -> List[Intermediate]:
        """Batched naive hop: coalesce each source node's broadcasts into
        one envelope per link, probe each distinct key once per node."""
        network = self.cluster.network
        nodes = self.cluster.nodes
        broadcast_counts: Dict[int, int] = {}
        key_occurrences: Dict[object, int] = {}
        for node, prefix in state:
            broadcast_counts[node] = broadcast_counts.get(node, 0) + 1
            key = prefix[key_position]
            key_occurrences[key] = key_occurrences.get(key, 0) + 1
        for src, count in broadcast_counts.items():
            network.broadcast_many(src, count, Tag.MAINTAIN)
        memo: Dict[Tuple[int, object], List[Row]] = {}
        num_nodes = self.cluster.num_nodes
        ctx = self.cluster._shared_ctx
        pending: List[Tuple[int, object]] = []
        for key in key_occurrences:
            for node_id in range(num_nodes):
                if ctx is not None:
                    # A broadcast probe touches the same base fragment slots
                    # as a co-located probe, so the cross-group memo is
                    # shared between the two hop shapes (same namespace).
                    cached = ctx.lookup(
                        access.relation, access.column, node_id, key
                    )
                    if cached is not None:
                        memo[(node_id, key)] = cached
                        continue
                pending.append((node_id, key))
        if engine is not None:
            probe_results = engine.run_ops([
                ("probe", node_id, access.relation, access.column, key,
                 Tag.MAINTAIN)
                for node_id, key in pending
            ])
            for (node_id, key), matches in zip(pending, probe_results):
                memo[(node_id, key)] = matches
                times = key_occurrences[key]
                if times > 1:
                    nodes[node_id].charge_index_probe(
                        access.relation, access.column, len(matches),
                        Tag.MAINTAIN, times=times - 1,
                    )
        else:
            for node_id, key in pending:
                matches = nodes[node_id].index_probe(
                    access.relation, access.column, key, Tag.MAINTAIN
                )
                memo[(node_id, key)] = matches
                times = key_occurrences[key]
                if times > 1:
                    nodes[node_id].charge_index_probe(
                        access.relation, access.column, len(matches),
                        Tag.MAINTAIN, times=times - 1,
                    )
        if ctx is not None:
            for node_id, key in pending:
                ctx.store(
                    access.relation, access.column, node_id, key,
                    memo[(node_id, key)],
                )
        results: List[Intermediate] = []
        passes = self._passes
        for node, prefix in state:
            key = prefix[key_position]
            for destination in range(num_nodes):
                for partner_row in memo[(destination, key)]:
                    if not filters or passes(filters, prefix, partner_row):
                        results.append((destination, prefix + partner_row))
        return results

    def _inl_global_index_batched(
        self, hop, state, key_position, filters, access: GlobalIndexAccess,
        engine=None,
    ) -> List[Intermediate]:
        """Batched GI hop: one GI probe and one rowid-fetch batch per
        distinct key; repeats charge the modeled SEND/SEARCH/FETCH without
        touching storage again.

        Parallel mode needs two supersteps — the rowid fetches depend on the
        GI probe answers — which is exactly the paper's two-round GI
        protocol (probe the directory, then visit the owners)."""
        gi = self.cluster.catalog.global_index(access.gi_name)
        network = self.cluster.network
        nodes = self.cluster.nodes
        send_counts: Dict[Tuple[int, int], int] = {}
        key_occurrences: Dict[object, int] = {}
        home_cache: Dict[object, int] = {}
        routed: List[Tuple[Row, object]] = []
        for node, prefix in state:
            key = prefix[key_position]
            home = home_cache.get(key)
            if home is None:
                home = home_cache[key] = gi.home_node(key)
            link = (node, home)
            send_counts[link] = send_counts.get(link, 0) + 1
            key_occurrences[key] = key_occurrences.get(key, 0) + 1
            routed.append((prefix, key))
        for (src, dst), count in send_counts.items():
            network.send_many(src, dst, count, Tag.MAINTAIN)
        # Probe each distinct key once; fetch each owner's matches once.
        memo: Dict[object, List[Tuple[int, List[Row]]]] = {}
        owner_send_counts: Dict[Tuple[int, int], int] = {}
        ctx = self.cluster._shared_ctx
        pending_keys = key_occurrences
        if ctx is not None:
            # GI answers (probe + the owner fetches they trigger) are shared
            # across view groups per distinct key; a hit skips the probe,
            # the home->owner sends, and the fetches — all billed by the
            # group that executed them (DESIGN.md § 13).
            pending_keys = {}
            for key, times in key_occurrences.items():
                cached = ctx.lookup_gi(access.gi_name, key)
                if cached is not None:
                    memo[key] = cached
                else:
                    pending_keys[key] = times
        if engine is not None:
            keys = list(pending_keys)
            grouped_results = engine.run_ops([
                ("gi_probe", home_cache[key], access.gi_name, key, Tag.MAINTAIN)
                for key in keys
            ])
            fetch_ops: List[tuple] = []
            fetch_meta: List[Tuple[object, int, int]] = []
            for key, grouped in zip(keys, grouped_results):
                times = pending_keys[key]
                home = home_cache[key]
                if times > 1:
                    nodes[home].charge_gi_probe(
                        access.gi_name, Tag.MAINTAIN, times=times - 1
                    )
                memo[key] = []
                for owner, grids in grouped.items():
                    link = (home, owner)
                    owner_send_counts[link] = (
                        owner_send_counts.get(link, 0) + times
                    )
                    fetch_ops.append((
                        "fetch", owner, access.relation,
                        tuple(grid.rowid for grid in grids), Tag.MAINTAIN,
                        access.distributed_clustered,
                    ))
                    fetch_meta.append((key, owner, len(grids)))
            fetch_results = engine.run_ops(fetch_ops)
            for (key, owner, num_grids), rows in zip(fetch_meta, fetch_results):
                memo[key].append((owner, rows))
                times = pending_keys[key]
                if times > 1:
                    units = 1 if access.distributed_clustered else num_grids
                    nodes[owner].charge_fetch(
                        access.relation, units, Tag.MAINTAIN, times=times - 1
                    )
        else:
            for key, times in pending_keys.items():
                home = home_cache[key]
                grouped = nodes[home].gi_probe(access.gi_name, key, Tag.MAINTAIN)
                if times > 1:
                    nodes[home].charge_gi_probe(
                        access.gi_name, Tag.MAINTAIN, times=times - 1
                    )
                fetched: List[Tuple[int, List[Row]]] = []
                for owner, grids in grouped.items():
                    link = (home, owner)
                    owner_send_counts[link] = owner_send_counts.get(link, 0) + times
                    rows = nodes[owner].fetch_by_rowids(
                        access.relation,
                        [grid.rowid for grid in grids],
                        Tag.MAINTAIN,
                        clustered_on_page=access.distributed_clustered,
                    )
                    if times > 1:
                        units = 1 if access.distributed_clustered else len(grids)
                        nodes[owner].charge_fetch(
                            access.relation, units, Tag.MAINTAIN, times=times - 1
                        )
                    fetched.append((owner, rows))
                memo[key] = fetched
        for (src, dst), count in owner_send_counts.items():
            network.send_many(src, dst, count, Tag.MAINTAIN)
        if ctx is not None:
            for key in pending_keys:
                ctx.store_gi(access.gi_name, key, memo[key])
        results: List[Intermediate] = []
        passes = self._passes
        for prefix, key in routed:
            for owner, rows in memo[key]:
                for partner_row in rows:
                    if not filters or passes(filters, prefix, partner_row):
                        results.append((owner, prefix + partner_row))
        return results

    # ---------------------------------------------------- sort-merge hops

    def _hop_sort_merge(
        self,
        hop: Hop,
        state: List[Intermediate],
        key_position: int,
        filters,
        batch: bool = False,
        engine=None,
    ) -> List[Intermediate]:
        """Batch alternative: instead of per-tuple probes, the partner's
        fragments are scanned (clustered) or sorted (non-clustered) once and
        merged with the routed delta (paper §3.1.2)."""
        access = hop.access
        if isinstance(access, BaseAccess) and access.broadcast:
            return self._sm_broadcast(
                hop, state, key_position, filters, access, batch=batch,
                engine=engine,
            )
        if isinstance(access, BaseAccess):
            return self._sm_partitioned(
                hop, state, key_position, filters,
                access.fragment_name, access.column,
                self._base_key_router(access), sorted_fragments=access.clustered,
                batch=batch, engine=engine,
            )
        if isinstance(access, AuxiliaryAccess):
            aux = self.cluster.catalog.auxiliary(access.ar_name)
            return self._sm_partitioned(
                hop, state, key_position, filters,
                access.ar_name, access.column,
                aux.partitioner.node_of_key, sorted_fragments=True,
                batch=batch, engine=engine,
            )
        if isinstance(access, GlobalIndexAccess):
            # In the sort-merge regime the GI brings nothing: the work is
            # dominated by scanning/sorting the base fragments, exactly as
            # the paper's response-time model charges it.
            return self._sm_scan_all(
                hop, state, key_position, filters,
                access.relation, access.column,
                sorted_fragments=access.distributed_clustered,
                batch=batch, engine=engine,
            )
        raise TypeError(f"unknown access path {access!r}")

    def _sm_merge_parallel(
        self, engine, fragment_name, column, sorted_fragments,
        slices: Dict[int, List[Row]], key_position, filters,
    ) -> List[Intermediate]:
        """One superstep of per-node merge passes (the parallel half of the
        sort-merge hops).

        Every node receives a ``merge`` command — the scan/sort pass is
        charged *per node* whether or not its delta slice is empty, exactly
        like the serial loop — carrying the distinct join keys of that
        node's slice.  Workers return matches grouped by key in fragment
        scan order; the assembly below then walks (node order x slice order
        x scan order), the same nesting as
        :meth:`_merge_against_fragment`.
        """
        num_nodes = self.cluster.num_nodes
        wanted: List[Tuple[object, ...]] = []
        for node_id in range(num_nodes):
            prefixes = slices.get(node_id)
            if prefixes:
                wanted.append(
                    tuple(dict.fromkeys(p[key_position] for p in prefixes))
                )
            else:
                wanted.append(())
        merge_results = engine.run_ops([
            ("merge", node_id, fragment_name, column, sorted_fragments,
             wanted[node_id], Tag.MAINTAIN)
            for node_id in range(num_nodes)
        ])
        results: List[Intermediate] = []
        passes = self._passes
        for node_id, matches in enumerate(merge_results):
            prefixes = slices.get(node_id)
            if not prefixes:
                continue
            for prefix in prefixes:
                for partner_row in matches.get(prefix[key_position], ()):
                    if passes(filters, prefix, partner_row):
                        results.append((node_id, prefix + partner_row))
        return results

    def _charge_fragment_pass(self, fragment_name: str, node_id: int, is_sorted: bool) -> None:
        """Charge one node for consuming its fragment in merge order:
        a scan when already clustered on the join key, a sort otherwise."""
        node = self.cluster.nodes[node_id]
        pages = node.fragment_pages(fragment_name)
        if pages == 0:
            return
        if is_sorted:
            node.ledger.charge(node_id, Op.SCAN_PAGE, Tag.MAINTAIN, count=pages)
        else:
            cost = node.layout.sort_cost_pages(pages)
            node.ledger.charge(node_id, Op.SORT_PAGE, Tag.MAINTAIN, count=cost)

    def _merge_against_fragment(
        self, hop, prefixes: List[Row], key_position, filters, fragment_name, column, node_id
    ) -> List[Intermediate]:
        """Join routed prefixes against one node's fragment contents."""
        node = self.cluster.nodes[node_id]
        position = node.fragment(fragment_name).table.schema.index_of(column)
        by_key: Dict[object, List[Row]] = {}
        for row in node.scan(fragment_name):
            by_key.setdefault(row[position], []).append(row)
        results: List[Intermediate] = []
        for prefix in prefixes:
            for partner_row in by_key.get(prefix[key_position], ()):
                if self._passes(filters, prefix, partner_row):
                    results.append((node_id, prefix + partner_row))
        return results

    def _sm_broadcast(
        self, hop, state, key_position, filters, access: BaseAccess,
        batch: bool = False, engine=None,
    ) -> List[Intermediate]:
        """Naive sort-merge: every node receives the whole delta and merges
        it with its own partner fragment."""
        if batch:
            broadcast_counts: Dict[int, int] = {}
            for node, _ in state:
                broadcast_counts[node] = broadcast_counts.get(node, 0) + 1
            for src, count in broadcast_counts.items():
                self.cluster.network.broadcast_many(src, count, Tag.MAINTAIN)
        else:
            for node, _ in state:
                for _ in self.cluster.network.broadcast(node, Tag.MAINTAIN):
                    pass
        prefixes = [prefix for _, prefix in state]
        if engine is not None:
            slices = {
                node_id: prefixes for node_id in range(self.cluster.num_nodes)
            }
            return self._sm_merge_parallel(
                engine, access.relation, access.column, access.clustered,
                slices, key_position, filters,
            )
        results: List[Intermediate] = []
        for node in self.cluster.nodes:
            self._charge_fragment_pass(access.relation, node.node_id, access.clustered)
            results.extend(
                self._merge_against_fragment(
                    hop, prefixes, key_position, filters,
                    access.relation, access.column, node.node_id,
                )
            )
        return results

    def _sm_partitioned(
        self, hop, state, key_position, filters, fragment_name, column, router,
        sorted_fragments: bool, batch: bool = False, engine=None,
    ) -> List[Intermediate]:
        """AR / co-located sort-merge: route the delta by join key, then
        each node merges its slice with its (clustered) fragment."""
        slices: Dict[int, List[Row]] = {}
        if batch:
            send_counts: Dict[Tuple[int, int], int] = {}
            route_cache: Dict[object, int] = {}
            for node, prefix in state:
                key = prefix[key_position]
                destination = route_cache.get(key)
                if destination is None:
                    destination = route_cache[key] = router(key)
                link = (node, destination)
                send_counts[link] = send_counts.get(link, 0) + 1
                slices.setdefault(destination, []).append(prefix)
            for (src, dst), count in send_counts.items():
                self.cluster.network.send_many(src, dst, count, Tag.MAINTAIN)
        else:
            for node, prefix in state:
                destination = router(prefix[key_position])
                self.cluster.network.send(node, destination, Tag.MAINTAIN)
                slices.setdefault(destination, []).append(prefix)
        if engine is not None:
            return self._sm_merge_parallel(
                engine, fragment_name, column, sorted_fragments,
                slices, key_position, filters,
            )
        results: List[Intermediate] = []
        for node in self.cluster.nodes:
            self._charge_fragment_pass(fragment_name, node.node_id, sorted_fragments)
            prefixes = slices.get(node.node_id)
            if prefixes:
                results.extend(
                    self._merge_against_fragment(
                        hop, prefixes, key_position, filters,
                        fragment_name, column, node.node_id,
                    )
                )
        return results

    def _sm_scan_all(
        self, hop, state, key_position, filters, fragment_name, column,
        sorted_fragments: bool, batch: bool = False, engine=None,
    ) -> List[Intermediate]:
        """GI sort-merge: the base fragments are scanned/sorted at every
        node; the delta (already keyed) is merged against each."""
        prefixes = [prefix for _, prefix in state]
        gi = self.cluster.catalog.global_index(
            hop.access.gi_name  # type: ignore[union-attr]
        )
        if batch:
            send_counts: Dict[Tuple[int, int], int] = {}
            home_cache: Dict[object, int] = {}
            for node, prefix in state:
                key = prefix[key_position]
                gi_home = home_cache.get(key)
                if gi_home is None:
                    gi_home = home_cache[key] = gi.home_node(key)
                link = (node, gi_home)
                send_counts[link] = send_counts.get(link, 0) + 1
            for (src, dst), count in send_counts.items():
                self.cluster.network.send_many(src, dst, count, Tag.MAINTAIN)
        else:
            for node, prefix in state:
                # The delta still travels to its key's GI home node first.
                gi_home = gi.home_node(prefix[key_position])
                self.cluster.network.send(node, gi_home, Tag.MAINTAIN)
        if engine is not None:
            slices = {
                node_id: prefixes for node_id in range(self.cluster.num_nodes)
            }
            return self._sm_merge_parallel(
                engine, fragment_name, column, sorted_fragments,
                slices, key_position, filters,
            )
        results: List[Intermediate] = []
        for node in self.cluster.nodes:
            self._charge_fragment_pass(fragment_name, node.node_id, sorted_fragments)
            results.extend(
                self._merge_against_fragment(
                    hop, prefixes, key_position, filters,
                    fragment_name, column, node.node_id,
                )
            )
        return results
