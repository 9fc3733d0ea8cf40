"""Maintenance-plan optimization and method advice.

Two optimization problems from the paper live here:

* **Plan choice** (§2.2): with views over three or more relations there are
  several legal hop orders (four for the triangle example); which is best
  "is impossible to state without considering relational statistics".
  :class:`MaintenancePlanner` enumerates the orders and prices them with
  fan-out estimates.
* **Method choice** (§4): "our analytical model could form the basis for a
  cost model that would enable a system to choose the best approach
  automatically".  :class:`MethodAdvisor` is that cost model: given an
  expected update size and a storage budget it recommends naive / auxiliary
  relation / global index per view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..costs import CostParameters
from .maintenance import MaintenanceMethod
from .multiway import (
    AccessPath,
    AuxiliaryAccess,
    BaseAccess,
    CompiledJoin,
    CompiledPlan,
    GlobalIndexAccess,
    Hop,
    HopChoice,
    MaintenancePlan,
    attach_select,
    compile_join,
    enumerate_orders,
)
from .statistics import StatisticsCache
from .view import BoundView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import Cluster


class PlanningError(RuntimeError):
    """Raised when a required auxiliary structure is missing."""


class MaintenancePlanner:
    """Chooses, for each updated base relation, how to join its delta
    through the remaining relations of one view."""

    def __init__(
        self,
        cluster: "Cluster",
        bound: BoundView,
        method: MaintenanceMethod,
        statistics: Optional[StatisticsCache] = None,
    ) -> None:
        self.cluster = cluster
        self.bound = bound
        self.method = method
        self.statistics = statistics or cluster.statistics
        #: One entry per updated relation, each tagged with the
        #: :meth:`_signature_key` it was made under and replaced when that
        #: moves — O(relations) entries however long the cluster runs.
        self._plan_cache: Dict[str, Tuple[Tuple, MaintenancePlan]] = {}
        self._compiled_cache: Dict[str, Tuple[Tuple, CompiledPlan]] = {}
        self._order_counts: Dict[str, int] = {}

    # ------------------------------------------------------------ planning

    def _signature_key(self) -> Tuple:
        """Plan-cache tag: catalog version (DDL invalidation) plus the
        relation cardinalities from :meth:`StatisticsCache.rows` (replan as
        data grows; each is an O(L) sum of fragment sizes)."""
        return (
            self.cluster.catalog.version,
            tuple(map(self.statistics.rows, self.bound.definition.relations)),
        )

    def _single_order(self, updated: str) -> bool:
        """Whether only one legal hop order exists (every two-relation
        view).  The count depends only on the join graph, so it is
        computed once per updated relation."""
        count = self._order_counts.get(updated)
        if count is None:
            count = len(enumerate_orders(self.bound, updated))
            self._order_counts[updated] = count
        return count <= 1

    def plan_for(self, updated: str) -> MaintenancePlan:
        """The cheapest legal plan for a delta on ``updated``.

        Cached per catalog version and relation cardinalities, so plans
        adapt as data grows.
        """
        key = self._signature_key()
        held = self._plan_cache.get(updated)
        if held is None or held[0] != key:
            held = self._plan_cache[updated] = (key, self._choose_plan(updated))
        return held[1]

    def compiled_for(self, updated: str) -> CompiledPlan:
        """The plan for ``updated`` with mapper, probe-key positions, and
        filter positions resolved once.

        When only one legal hop order exists (every two-relation view),
        cardinality growth cannot change the plan — only its object
        identity — so the compiled artifact is cached per catalog version
        alone and survives data growth; multiway views key on the full
        cardinality signature, tracking :meth:`plan_for`'s replanning.
        """
        if self._single_order(updated):
            key: Tuple = (self.cluster.catalog.version,)
        else:
            key = self._signature_key()
        held = self._compiled_cache.get(updated)
        obs = self.cluster.obs
        if held is None or held[0] != key:
            with obs.span(
                "plan_compile",
                view=self.bound.definition.name,
                relation=updated,
                method=self.method.value,
            ):
                compiled = attach_select(
                    self.bound, self._shared_join(self.plan_for(updated))
                )
                self._compiled_cache[updated] = (key, compiled)
            if obs.enabled:
                self._plan_cache_event(obs, updated, "miss")
            return compiled
        if obs.enabled:
            self._plan_cache_event(obs, updated, "compiled_hit")
        return held[1]

    def _shared_join(self, plan: MaintenancePlan) -> CompiledJoin:
        """Fetch (or create) the select-independent compiled join.

        The cluster keeps one :class:`CompiledJoin` per join clause per
        catalog version, so views that differ only in their projection
        list share the same layout, probe-key positions, and filter
        closures instead of compiling duplicates — and the shared
        multi-view path can group views by comparing ``compiled.join``
        identity.  Stale versions are pruned on miss, mirroring
        :meth:`_prune_stale` (the key carries the version in position 0).
        """
        cache = getattr(self.cluster, "_compiled_join_cache", None)
        if cache is None:
            return compile_join(plan)
        version = self.cluster.catalog.version
        key = (version, plan.updated, plan.updated_schema, plan.hops)
        join = cache.get(key)
        if join is None:
            stale = [entry for entry in cache if entry[0] != version]
            for entry in stale:
                del cache[entry]
            join = compile_join(plan)
            cache[key] = join
        return join

    def _plan_cache_event(self, obs, updated: str, kind: str) -> None:  # repro: obs-guarded=both call sites test obs.enabled first
        """Push one live plan-cache counter sample (traced runs only)."""
        obs.metrics.counter(
            "repro_plan_cache_events_total",
            "Compiled-plan cache hits and misses per view and relation",
        ).inc(view=self.bound.definition.name, relation=updated, kind=kind)

    def alternatives(self, updated: str) -> List[Tuple[MaintenancePlan, float]]:
        """Every legal plan with its estimated cost, cheapest first —
        the paper's 'four possible ways' made inspectable."""
        priced = [
            (self._build_plan(updated, order), self._price_order(order))
            for order in enumerate_orders(self.bound, updated)
        ]
        priced.sort(key=lambda pair: pair[1])
        return priced

    def _choose_plan(self, updated: str) -> MaintenancePlan:
        orders = enumerate_orders(self.bound, updated)
        # A lone order needs no pricing — and so no statistics tracked.
        best = orders[0] if len(orders) == 1 else min(orders, key=self._price_order)
        return self._build_plan(updated, best)

    def _build_plan(
        self, updated: str, order: Tuple[HopChoice, ...]
    ) -> MaintenancePlan:
        hops = []
        for choice in order:
            column = choice.probe.column_of(choice.partner)
            left_relation, left_column = choice.probe.other(choice.partner)
            access = self.resolve_access(choice.partner, column)
            hops.append(
                Hop(
                    partner=choice.partner,
                    left_relation=left_relation,
                    left_column=left_column,
                    right_column=column,
                    access=access,
                    contributed=self._contributed_schema(access),
                    extra_filters=choice.extra_filters,
                )
            )
        return MaintenancePlan(
            view=self.bound.definition.name,
            updated=updated,
            updated_schema=self.bound.schemas[updated],
            hops=tuple(hops),
        )

    def _contributed_schema(self, access: AccessPath):
        if isinstance(access, AuxiliaryAccess):
            return self.cluster.catalog.auxiliary(access.ar_name).schema
        return self.cluster.catalog.relation(access.relation).schema

    # ------------------------------------------------------- access paths

    def resolve_access(self, partner: str, column: str) -> AccessPath:
        """The structure a hop probes, per the paper's per-method rules.

        Every method gets the free ride when the partner is already
        partitioned on the join attribute ("the auxiliary relation for that
        base relation is unnecessary"); otherwise the method dictates the
        structure.
        """
        info = self.cluster.catalog.relation(partner)
        if info.is_partitioned_on(column):
            if column not in info.indexes:
                raise PlanningError(
                    f"{partner!r} needs a local index on its partitioning "
                    f"column {column!r} to be probed"
                )
            return BaseAccess(
                relation=partner,
                column=column,
                broadcast=False,
                clustered=info.indexes[column],
            )
        if self.method is MaintenanceMethod.NAIVE:
            if column not in info.indexes:
                raise PlanningError(
                    f"naive maintenance probes {partner}.{column} at every "
                    "node and needs a local index there"
                )
            return BaseAccess(
                relation=partner,
                column=column,
                broadcast=True,
                clustered=info.indexes[column],
            )
        if self.method is MaintenanceMethod.HYBRID:
            return self._resolve_hybrid(partner, column, info)
        if self.method is MaintenanceMethod.AUXILIARY:
            aux = self.cluster.catalog.find_auxiliary(partner, column)
            if aux is None:
                raise PlanningError(
                    f"no auxiliary relation of {partner!r} partitioned on "
                    f"{column!r}; create one or define the view through "
                    "define_join_view, which provisions it"
                )
            return AuxiliaryAccess(ar_name=aux.name, relation=partner, column=column)
        gi = self.cluster.catalog.find_global_index(partner, column)
        if gi is None:
            raise PlanningError(
                f"no global index on {partner}.{column}; create one or "
                "define the view through define_join_view, which provisions it"
            )
        return GlobalIndexAccess(
            gi_name=gi.name,
            relation=partner,
            column=column,
            distributed_clustered=gi.distributed_clustered,
        )

    def _resolve_hybrid(self, partner: str, column: str, info) -> AccessPath:
        """Hybrid preference order: AR > GI > broadcast base (paper §4's
        per-relation mixing; co-located base was handled by the caller)."""
        aux = self.cluster.catalog.find_auxiliary(partner, column)
        if aux is not None:
            return AuxiliaryAccess(ar_name=aux.name, relation=partner, column=column)
        gi = self.cluster.catalog.find_global_index(partner, column)
        if gi is not None:
            return GlobalIndexAccess(
                gi_name=gi.name,
                relation=partner,
                column=column,
                distributed_clustered=gi.distributed_clustered,
            )
        if column not in info.indexes:
            raise PlanningError(
                f"hybrid maintenance has no structure on {partner}.{column} "
                "and no local index to fall back to; provision one"
            )
        return BaseAccess(
            relation=partner,
            column=column,
            broadcast=True,
            clustered=info.indexes[column],
        )

    # ------------------------------------------------------------ pricing

    def _price_order(self, order: Tuple[HopChoice, ...]) -> float:
        """Estimated maintenance cost of one hop order, per delta tuple."""
        cardinality = 1.0
        total = 0.0
        for choice in order:
            column = choice.probe.column_of(choice.partner)
            access = self.resolve_access(choice.partner, column)
            fanout = self.statistics.fanout(choice.partner, column)
            total += cardinality * self._probe_unit_cost(access, fanout)
            cardinality *= fanout
            for condition in choice.extra_filters:
                cardinality /= max(
                    1,
                    self.statistics.distinct(
                        choice.partner, condition.column_of(choice.partner)
                    ),
                )
        return total

    def _probe_unit_cost(self, access: AccessPath, fanout: float) -> float:
        """Weighted cost of probing once through ``access`` (paper §3.1.1)."""
        weights: CostParameters = self.cluster.ledger.params
        num_nodes = self.cluster.num_nodes
        send, search, fetch = weights.send_ios, weights.search_ios, weights.fetch_ios
        if isinstance(access, BaseAccess):
            if access.broadcast:
                probes = num_nodes * (send + search)
                return probes + (0.0 if access.clustered else fanout * fetch)
            return send + search + (0.0 if access.clustered else fanout * fetch)
        if isinstance(access, AuxiliaryAccess):
            return send + search  # clustered: matches ride the landing page
        spread = min(fanout, float(num_nodes))
        fetches = spread * fetch if access.distributed_clustered else fanout * fetch
        return send + search + 2 * spread * send + fetches

    # ----------------------------------------------------- join strategy

    def prefer_sort_merge(self, hop: Hop, state_size: int) -> bool:
        """The paper's regime choice: per-tuple index probes while the delta
        is small, one scan/sort of the partner once the per-tuple work would
        exceed it (§3.1.2)."""
        inl = self._inl_response_estimate(hop, state_size)
        sm = self._sort_merge_response_estimate(hop)
        return sm < inl

    def _inl_response_estimate(self, hop: Hop, state_size: int) -> float:
        num_nodes = self.cluster.num_nodes
        access = hop.access
        fanout = self.statistics.fanout(access.relation, hop.right_column)
        per_node_share = -(-state_size // num_nodes)  # ceil
        if isinstance(access, BaseAccess) and access.broadcast:
            fetch_share = 0.0 if access.clustered else fanout / num_nodes
            return state_size * (1.0 + fetch_share)
        if isinstance(access, (AuxiliaryAccess, BaseAccess)):
            clustered = (
                access.clustered if isinstance(access, BaseAccess) else True
            )
            return per_node_share * (1.0 + (0.0 if clustered else fanout))
        spread = min(fanout, float(num_nodes))
        fetches = spread if access.distributed_clustered else fanout
        return per_node_share * (1.0 + fetches)

    def _sort_merge_response_estimate(self, hop: Hop) -> float:
        access = hop.access
        fragment_name = access.fragment_name
        pages = max(
            (
                node.fragment_pages(fragment_name)
                for node in self.cluster.nodes
                if node.has_fragment(fragment_name)
            ),
            default=0,
        )
        layout = self.cluster.layout
        if isinstance(access, AuxiliaryAccess):
            return layout.scan_cost_pages(pages)
        clustered = (
            access.clustered
            if isinstance(access, BaseAccess)
            else access.distributed_clustered
        )
        if clustered:
            return layout.scan_cost_pages(pages)
        return layout.sort_cost_pages(pages)


# ======================================================== method advising


@dataclass(frozen=True)
class MethodRecommendation:
    """The advisor's verdict for one view under one workload profile."""

    method: MaintenanceMethod
    predicted_response_ios: float
    storage_overhead_tuples: int
    per_method_response: Dict[str, float]
    per_method_storage: Dict[str, int]
    reason: str


class MethodAdvisor:
    """Chooses a maintenance method from the paper's analytical model.

    The conclusion names the two decisive environment factors: "the update
    activity on base relations and the amount of available storage space".
    The advisor prices all five model variants for the expected update size
    and discards methods whose extra structures exceed the storage budget.
    """

    def __init__(self, cluster: "Cluster", bound: BoundView) -> None:
        self.cluster = cluster
        self.bound = bound
        self.statistics = cluster.statistics

    def storage_overhead(self, method: MaintenanceMethod) -> int:
        """Extra tuples/entries the method needs for this view (naive: 0;
        GI: one entry per base tuple per GI; AR: a trimmed copy per AR)."""
        if method is MaintenanceMethod.NAIVE:
            return 0
        total = 0
        for relation in self.bound.definition.relations:
            info = self.cluster.catalog.relation(relation)
            for column in self.bound.definition.join_columns_of(relation):
                if info.is_partitioned_on(column):
                    continue
                total += self.statistics.rows(relation)
        return total

    def recommend(
        self,
        update_size: int,
        updated_relation: Optional[str] = None,
        storage_budget_tuples: Optional[int] = None,
        clustered_base_indexes: bool = False,
    ) -> MethodRecommendation:
        """Pick the best method for transactions of ``update_size`` tuples.

        ``clustered_base_indexes`` mirrors the paper's scenario split: when
        base fragments are clustered on the join attribute, the naive method
        with sort-merge becomes competitive for very large updates
        (Figure 10); otherwise it never is.
        """
        from ..model import MethodVariant, ModelParameters, response_time_ios

        updated = updated_relation or self.bound.definition.relations[0]
        partners = [r for r in self.bound.definition.relations if r != updated]
        # Model parameters against the largest partner, the conservative pick.
        partner = max(partners, key=self.statistics.rows)
        condition = next(
            c for c in self.bound.definition.conditions_touching(updated)
            if c.other(updated)[0] in partners
        )
        partner_rel, partner_col = condition.other(updated)
        fanout = max(1.0, self.statistics.fanout(partner_rel, partner_col))
        params = ModelParameters(
            num_nodes=self.cluster.num_nodes,
            fanout=fanout,
            partner_pages=max(1, self.cluster.relation_pages(partner_rel)),
            memory_pages=self.cluster.layout.memory_pages,
            costs=self.cluster.ledger.params,
        )
        variants = {
            MaintenanceMethod.NAIVE: (
                MethodVariant.NAIVE_CLUSTERED
                if clustered_base_indexes
                else MethodVariant.NAIVE_NONCLUSTERED
            ),
            MaintenanceMethod.AUXILIARY: MethodVariant.AUXILIARY,
            MaintenanceMethod.GLOBAL_INDEX: (
                MethodVariant.GI_CLUSTERED
                if clustered_base_indexes
                else MethodVariant.GI_NONCLUSTERED
            ),
        }
        per_response: Dict[str, float] = {}
        per_storage: Dict[str, int] = {}
        feasible: List[Tuple[float, MaintenanceMethod]] = []
        for method, variant in variants.items():
            response = response_time_ios(variant, update_size, params)
            storage = self.storage_overhead(method)
            per_response[method.value] = response
            per_storage[method.value] = storage
            if storage_budget_tuples is None or storage <= storage_budget_tuples:
                feasible.append((response, method))
        if not feasible:
            raise PlanningError(
                "no maintenance method fits the storage budget "
                f"({storage_budget_tuples} tuples)"
            )
        best_response, best_method = min(feasible, key=lambda pair: pair[0])
        reason = self._explain(best_method, update_size, per_response, per_storage)
        return MethodRecommendation(
            method=best_method,
            predicted_response_ios=best_response,
            storage_overhead_tuples=per_storage[best_method.value],
            per_method_response=per_response,
            per_method_storage=per_storage,
            reason=reason,
        )

    @staticmethod
    def _explain(
        method: MaintenanceMethod,
        update_size: int,
        responses: Dict[str, float],
        storage: Dict[str, int],
    ) -> str:
        ordered = sorted(responses.items(), key=lambda item: item[1])
        ranking = ", ".join(f"{name}={ios:,.0f} I/Os" for name, ios in ordered)
        return (
            f"for {update_size}-tuple transactions the predicted response "
            f"times are {ranking}; {method.value} wins with "
            f"{storage[method.value]:,} tuples of extra storage"
        )
